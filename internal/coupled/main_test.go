package coupled

import (
	"os"
	"testing"

	"viper/internal/leakcheck"
	"viper/internal/poolcheck"
)

// TestMain gates the package on goroutine hygiene. The coupled-run
// simulator is single-goroutine by design, but it drives the virtual
// clock hard — this gate is what caught simclock's After() relay
// goroutines piling up behind wakeups that never fire. The runs publish
// through core, so the pools' ownership contract is armed (poolcheck).
func TestMain(m *testing.M) {
	poolcheck.Enable()
	os.Exit(leakcheck.Main(m))
}
