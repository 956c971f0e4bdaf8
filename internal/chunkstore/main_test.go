package chunkstore

import (
	"os"
	"testing"

	"viper/internal/bufpool"
	"viper/internal/leakcheck"
)

// TestMain gates the package on goroutine leaks and runs every test —
// the model and chaos schedules' error paths included — with the pools'
// ownership contract armed (bufpool.Arm): a scratch buffer handed back is
// overwritten, one handed back twice panics.
func TestMain(m *testing.M) {
	bufpool.Arm()
	os.Exit(leakcheck.Main(m))
}
