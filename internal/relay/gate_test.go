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
	"viper/internal/transport"
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

// ingestHashFloors holds the ingest side to hashing only what will be
// reconciled: of one 16-record version, pushed untagged it hashes none,
// pushed with the reconcile tag each record once.
func ingestHashFloors(untagged, tagged int64) error {
	var errs []error
	if untagged != 0 {
		errs = append(errs, fmt.Errorf("untagged: the ingest hashed %d of 16 records, want 0", untagged))
	}
	if tagged != 16 {
		errs = append(errs, fmt.Errorf("tagged: the ingest hashed %d of 16 records, want 16", tagged))
	}
	return errors.Join(errs...)
}

// TestGateUntaggedIngestHashesNothing holds ingest_hashed_records to
// ingestHashFloors over one 16-record version pushed untagged, then
// tagged (the tree before build-keyed records hashed both).
func TestGateUntaggedIngestHashesNothing(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestGate")
	elems := make([]float64, 256)
	for i := range elems {
		elems[i] = float64(i) / 7
	}
	snap := nn.Snapshot{{Name: "w", Shape: []int{len(elems)}, Data: elems}}
	if _, hashes := encodeVersion(t, "m", 1, snap, 128); len(hashes) != 16 {
		t.Fatalf("set-up: the version has %d records, want 16", len(hashes))
	}
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	var hashed [2]int64
	for i, push := range []func(*testing.T, *transport.TCPLink, string, uint64, nn.Snapshot, int){pushChunked, pushReconcile} {
		before := hashedRecords.Value()
		push(t, link, "m", uint64(i+1), snap, 128)
		waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == int64(i+1) }, "the push cached")
		hashed[i] = hashedRecords.Value() - before
	}
	t.Logf("records hashed of 16: %d untagged, %d tagged", hashed[0], hashed[1])
	if err := ingestHashFloors(hashed[0], hashed[1]); err != nil {
		t.Fatal(err)
	}
}

// TestIngestHashFloorsGoRed feeds the counts that miss one floor each by
// the smallest step.
func TestIngestHashFloorsGoRed(t *testing.T) {
	for _, tc := range []struct {
		untagged, tagged int64
		want             string // "" = green
	}{
		{0, 16, ""},
		{1, 16, "untagged"},
		{0, 15, "tagged"},
		{0, 17, "tagged"},
	} {
		err := ingestHashFloors(tc.untagged, tc.tagged)
		green := tc.want == "" && err == nil
		red := tc.want != "" && err != nil && strings.HasPrefix(err.Error(), tc.want) && !strings.Contains(err.Error(), "\n")
		if !green && !red {
			t.Errorf("untagged %d tagged %d: got %v, want exactly the %q floor", tc.untagged, tc.tagged, err, tc.want)
		}
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
