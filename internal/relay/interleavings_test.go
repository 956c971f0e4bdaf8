package relay

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"viper/internal/leakcheck"
)

// interleaved lists the tests ordered by gates and snapshots, not by one
// goroutine's program order: the streamed read-through, the lock-free
// readers of committed versions — fan-outs frozen across replacement,
// eviction and demotion, and the seeded sequence — the lock-free Stats
// readers, the per-hop corruption drill and the store's counted write
// handles.
var interleaved = []func(*testing.T){
	TestStoreReadFailsMidStream,
	TestChunkInNeitherTierRefusedBeforeFirstFrame,
	TestNewerCommitAbortsReadThrough,
	TestConcurrentJoinersReadThrough,
	TestDiskRecordsServeInOrder,
	TestReadThroughInstruments,
	TestFrozenFanoutSurvivesSameVnumReplacement,
	TestFrozenFanoutAcrossEviction,
	TestFrozenFanoutAcrossDemotion,
	TestSeededSequenceKeepsInvariants,
	TestCorruptionDrillRelayHops,
	TestDroppedStoreHandleFailsTheInvariant,
	TestInstancesCountTheirOwnAndTheRegistryTheSum,
	TestStatsReadDuringIngestAndFanout,
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
