package chunkstore

import (
	"os"
	"testing"

	"viper/internal/leakcheck"
	"viper/internal/poolcheck"
)

// TestMain gates the package on goroutine leaks and runs every test —
// the model and chaos schedules' error paths included — with the pools'
// ownership contract armed (poolcheck): a scratch buffer handed back is
// overwritten, one handed back twice panics.
func TestMain(m *testing.M) {
	poolcheck.Enable()
	os.Exit(leakcheck.Main(m))
}
