package relay

import (
	"os"
	"testing"

	"viper/internal/leakcheck"
	"viper/internal/transport"
)

// TestMain gates the package on goroutine leaks: the relay spawns accept
// loops, per-ingest handlers, and two goroutines per consumer session —
// all of which must be gone after every test's Close.
//
// Every test also runs with the receive pool's ownership contract armed
// (transport.RecvPool): the consumers these tests attach overwrite each
// payload they hand back, so a read after release breaks a record CRC or a
// bit-identity assertion instead of passing by luck. The relay's own links
// attach no pool.
func TestMain(m *testing.M) {
	transport.PoisonReleasedBuffers(true)
	os.Exit(leakcheck.Main(m))
}
