package experiments

import (
	"os"
	"testing"

	"viper/internal/poolcheck"
)

// TestMain runs every test with the pools' ownership contract armed
// (poolcheck): a pooled buffer that is handed back is overwritten, so a
// read after it fails a CRC or a bit-identity assertion, and a second
// hand-back panics.
func TestMain(m *testing.M) {
	poolcheck.Enable()
	os.Exit(m.Run())
}
