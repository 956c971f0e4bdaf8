package remote

import (
	"os"
	"testing"

	"viper/internal/leakcheck"
	"viper/internal/transport"
)

// TestMain gates the package on goroutine hygiene: producer/consumer
// pumps and their reconnect loops — including the chaos tests' killed
// and redialed links — must not outlive the tests that started them.
//
// Every test also runs with the receive pool's ownership contract armed
// (transport.RecvPool): a payload the consumer hands back is overwritten
// on the spot and a second release panics, so a read after release breaks
// a record CRC or one of the suite's bit-identity assertions instead of
// passing by luck.
func TestMain(m *testing.M) {
	transport.PoisonReleasedBuffers(true)
	os.Exit(leakcheck.Main(m))
}
