package remote

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"viper/internal/leakcheck"
)

// interleaved lists the tests ordered by notifications, gates and
// snapshots, not by one goroutine's program order: the consumer's builder
// and the producer's stage flusher, the filler, the span source —
// who offers it, who reads it while a serving thread holds the same
// checkpoint, what still takes the need-list — the back buffer cloned from
// it and the builds lost while patching one, the spare the builder writes
// while a serving thread reads the active checkpoint, the buffer pools'
// hand-back points, the read-ahead that bounds the receive buffers, and
// the per-hop corruption drill.
var interleaved = []func(*testing.T){
	TestParkedBuildWaitsForItsNotification,
	TestInterruptedStreamNeverInstalls,
	TestStalledStreamIsAbandoned,
	TestStagePendingWindow,
	TestDefaultConsumerBuildsBigStreams,
	TestBacklogInstallsInOrderFromTheLink,
	TestPublishErrorPathsBalanceTheBlob,
	TestNeedAnswerRacesNextPublish,
	TestFillRunsBehindTheInstall,
	TestDroppedParkedBuildIsNeverHashed,
	TestWaitingFillIsSuperseded,
	TestCloseAbandonsTheFill,
	TestStagedInstallFillsBehind,
	TestLateHaveListCostsOneFullStream,
	TestOnlyVerifiedRecordsAreHashed,
	TestParkedBudgetCountsWeights,
	TestSourceMovedOnTakesTheNeedList,
	TestABADrillKeepsTheNeedListPath,
	TestSupersededFillOffersNoSource,
	TestReaderHoldsActiveWhileBuilderInherits,
	TestNextRecyclesOnlyTheCheckpointBeforeLast,
	TestUnclaimedBuildsRefillTheSpare,
	TestUnofferedInstallIsNotRecycled,
	TestLostDeltaDiscardsTheBackBuffer,
	TestManifestWaitsForItsClone,
	TestDroppedBuildReleasesItsRecordsOnly,
	TestStaleFramesAreReleased,
	TestCloseWithFramesInFlight,
	TestCorruptionDrillDirectLink,
	TestReadAheadBoundsReceiveBuffers,
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
