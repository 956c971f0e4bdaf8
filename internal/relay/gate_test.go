package relay

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"viper/internal/leakcheck"
	"viper/internal/nn"
)

// fanOutFloors are the encode-once/send-many claim on a 16 MiB model over
// real TCP, as producer-side publish costs: through the relay, 32 consumers
// cost at most 1.25x what one does (flatness — cross-run noise on a loaded
// runner is ±15 % on this ratio for an unchanged tree), and at least 2x
// less than broadcasting to the 32 directly (scaling; measured ~10x).
func fanOutFloors(relay1, relay32, direct32 time.Duration) error {
	var errs []error
	if 100*relay32 > 125*relay1 {
		errs = append(errs, fmt.Errorf("flatness: relay@32 %v is over 1.25x relay@1 %v", relay32, relay1))
	}
	if 2*relay32 > direct32 {
		errs = append(errs, fmt.Errorf("scaling: relay@32 %v is not 2x cheaper than direct@32 %v", relay32, direct32))
	}
	return errors.Join(errs...)
}

// TestGateFanOutFlat holds the BenchmarkFanOut* measurements to
// fanOutFloors. Each figure is the median of 5 runs of 5 publishes: about
// one run in twelve finds every pooled 16 MiB buffer warm and reads ~11 ms
// against a usual ~20, and a minimum catches that mode on one side of a
// ratio only.
func TestGateFanOutFlat(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestGate")
	snap := benchSnapshot()
	median := func(measure func(testing.TB, int, int, nn.Snapshot) time.Duration, consumers int) time.Duration {
		runs := make([]time.Duration, 5)
		for i := range runs {
			runs[i] = measure(t, consumers, 5, snap)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
		return runs[len(runs)/2]
	}
	relay1, relay32, direct32 := median(fanOutRelay, 1), median(fanOutRelay, 32), median(fanOutDirect, 32)
	t.Logf("relay@1 %v, relay@32 %v, direct@32 %v", relay1, relay32, direct32)
	if err := fanOutFloors(relay1, relay32, direct32); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutFloorsGoRed feeds the comparison figures that miss one floor
// each by the smallest step.
func TestFanOutFloorsGoRed(t *testing.T) {
	for _, tc := range []struct {
		relay1, relay32, direct32 time.Duration
		want                      string // "" = green
	}{
		{100, 125, 250, ""},
		{100, 126, 252, "flatness"},
		{100, 125, 249, "scaling"}, // 2 x relay@32 = direct@32 + 1
	} {
		err := fanOutFloors(tc.relay1, tc.relay32, tc.direct32)
		green := tc.want == "" && err == nil
		red := tc.want != "" && err != nil && strings.HasPrefix(err.Error(), tc.want) && !strings.Contains(err.Error(), "\n")
		if !green && !red {
			t.Errorf("relay@1 %d relay@32 %d direct@32 %d: got %v, want exactly the %q floor",
				tc.relay1, tc.relay32, tc.direct32, err, tc.want)
		}
	}
}
