package transport

import (
	"os"
	"testing"

	"viper/internal/bufpool"
	"viper/internal/leakcheck"
)

// TestMain gates the package on goroutine hygiene: links, listeners, and
// reconnect loops spawned by any test must be gone when it ends. Every
// test runs with the pools' ownership contract armed (bufpool.Arm): a
// released receive buffer or encoder blob is overwritten, a second
// release panics.
func TestMain(m *testing.M) {
	bufpool.Arm()
	os.Exit(leakcheck.Main(m))
}
