package coupled

import (
	"os"
	"testing"

	"viper/internal/bufpool"
	"viper/internal/leakcheck"
)

// TestMain gates the package on goroutine hygiene. The coupled-run
// simulator is single-goroutine by design, but it drives the virtual
// clock hard — this gate is what caught simclock's After() relay
// goroutines piling up behind wakeups that never fire. The runs publish
// through core, so the pools' ownership contract is armed (bufpool.Arm).
func TestMain(m *testing.M) {
	bufpool.Arm()
	os.Exit(leakcheck.Main(m))
}
