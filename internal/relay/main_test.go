package relay

import (
	"os"
	"testing"

	"viper/internal/bufpool"
	"viper/internal/leakcheck"
)

// TestMain gates the package on goroutine leaks: the relay spawns accept
// loops, per-ingest handlers, and two goroutines per consumer session —
// all of which must be gone after every test's Close.
//
// Every test also runs with the pools' ownership contract armed
// (bufpool.Arm): the consumers these tests attach, the encoders that feed
// them and the store under the relay overwrite each buffer they hand
// back, so a read after it breaks a record CRC or a bit-identity
// assertion instead of passing by luck, and a second hand-back panics.
func TestMain(m *testing.M) {
	bufpool.Arm()
	os.Exit(leakcheck.Main(m))
}
