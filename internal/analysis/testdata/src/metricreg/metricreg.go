// Golden fixture for metricreg: DESIGN §10 metric naming and
// register-once discipline, against the real metrics package.
package metfix

import (
	"fmt"

	"viper/internal/metrics"
)

// reg and the package-level instruments are the blessed shape:
// constant lower_snake names resolved exactly once.
var (
	reg        = metrics.NewRegistry("metfix")
	sendTotal  = reg.Counter("frames_sent_total")
	queueDepth = reg.Gauge("queue_depth")
	sendNanos  = reg.Histogram("send_nanos")
)

// stats declares instrument names as tags (metrics.Bind resolves them).
type stats struct {
	Sent    int64 `metric:"frames_sent_total"`
	Dropped int64 `metric:"framesDropped"` // want `metric name "framesDropped" violates the lower_snake convention`
	Queue   int   // untagged state
}

func clean(n int) {
	for i := 0; i < n; i++ {
		sendTotal.Add(1) // reusing a resolved instrument in a loop is fine
	}
}

func badName() *metrics.Counter {
	return reg.Counter("FramesSent") // want `metric name "FramesSent" violates the lower_snake convention`
}

func dynamicName(shard int) *metrics.Counter {
	return reg.Counter(fmt.Sprintf("shard_%d_sent", shard)) // want "metric name is not a constant"
}

// dynamicInLoop is the unbounded-registry bug class: every iteration
// registers a fresh instrument that is never dropped.
func dynamicInLoop(shards []string) {
	for _, s := range shards {
		reg.Counter("shard_" + s).Add(1) // want "dynamic metric name built in a loop"
	}
}

// resolveInLoop re-resolves a constant-named instrument per iteration:
// a lock and map hit on the hot path.
func resolveInLoop(n int) {
	for i := 0; i < n; i++ {
		reg.Counter("frames_sent_total").Add(1) // want "resolved inside a loop"
	}
}

// registryInLoop creates registries in a loop.
func registryInLoop(names []string) {
	for range names {
		_ = metrics.NewRegistry("sub") // want "resolved inside a loop"
	}
}
