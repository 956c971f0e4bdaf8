package remote

import (
	"os"
	"testing"

	"viper/internal/bufpool"
	"viper/internal/leakcheck"
)

// TestMain gates the package on goroutine hygiene: producer/consumer
// pumps and their reconnect loops — including the chaos tests' killed
// and redialed links — must not outlive the tests that started them.
//
// Every test also runs with the pools' ownership contract armed
// (bufpool.Arm): a receive payload or an encoder blob that is handed back
// is overwritten on the spot and a second hand-back panics, so a read
// after it breaks a record CRC or one of the suite's bit-identity
// assertions instead of passing by luck.
func TestMain(m *testing.M) {
	bufpool.Arm()
	os.Exit(leakcheck.Main(m))
}
