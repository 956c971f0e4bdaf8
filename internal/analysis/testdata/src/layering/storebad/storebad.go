// Package chunkstore is a golden fixture loaded under the synthetic
// import path viper/internal/chunkstore: the storage leaf sits below the
// delivery layer, so importing relay (or any other delivery package)
// inverts the DAG; and as part of the real stack it may not reach into
// the simulator.
package chunkstore

import (
	"viper/internal/memsim" // want "chunkstore is part of the real stack and must not import the simulator package memsim"
	"viper/internal/relay"  // want "chunkstore is the storage leaf under the delivery layer and must not import relay"
)

var (
	_ = relay.InventoryKey
	_ = memsim.NewCluster
)
