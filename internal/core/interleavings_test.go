package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"viper/internal/leakcheck"
)

// interleaved lists the simulator link's latest-wins queue — three times,
// so it sees fifteen interleavings — and its close races.
var interleaved = []func(*testing.T){
	TestPropLatestWinsQueue,
	TestPropLatestWinsQueue,
	TestPropLatestWinsQueue,
	TestLinkCloseRaces,
}

// TestInterleavings reruns the tests above as subtests. ci.sh runs it
// alone, -race -count=5 (one -race pass sees one interleaving); in any
// other pass each listed test has already run once on its own, so it
// skips itself. A listed test that is renamed or deleted stops compiling.
func TestInterleavings(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestInterleavings")
	for _, test := range interleaved {
		name := runtime.FuncForPC(reflect.ValueOf(test).Pointer()).Name()
		t.Run(name[strings.LastIndex(name, ".")+1:], test)
	}
}
