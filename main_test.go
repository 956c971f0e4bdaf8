package viper

import (
	"os"
	"testing"

	"viper/internal/bufpool"
)

// TestMain runs every test with the pools' ownership contract armed
// (bufpool.Arm): a pooled buffer that is handed back is overwritten, so a
// read after it fails a CRC or a bit-identity assertion, and a second
// hand-back panics.
func TestMain(m *testing.M) {
	bufpool.Arm()
	os.Exit(m.Run())
}
