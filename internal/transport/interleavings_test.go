package transport

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"viper/internal/leakcheck"
)

// interleaved lists the in-process link's latest-wins queue — twice, so it
// sees ten interleavings — and the receive pool's hand-back points.
var interleaved = []func(*testing.T){
	TestPropLatestWinsQueue,
	TestPropLatestWinsQueue,
	TestRecvPoolContract,
	TestPooledRecvDrawsRecordsOnly,
	TestRecvErrorPathsReturnTheBuffer,
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
