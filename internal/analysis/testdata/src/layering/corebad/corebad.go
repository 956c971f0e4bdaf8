// Package vformat is a golden fixture loaded under the synthetic import
// path viper/internal/vformat: core is leaf-only, so an internal package
// outside the composition layer may not import it.
package vformat

import (
	"viper/internal/core" // want "core is leaf-only: only coupled, experiments, remote, and relay may import it, not vformat"
)

var _ = core.NewDoubleBuffer
