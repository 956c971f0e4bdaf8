// Package bufpool is a golden fixture loaded under the synthetic import
// path viper/internal/bufpool: the buffer leaf importing any other
// internal package is a layering violation.
package bufpool

import (
	"viper/internal/metrics" // want "bufpool must not import viper/internal/metrics"
)

var _ = metrics.NewRegistry
