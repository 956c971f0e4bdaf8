package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"viper/internal/leakcheck"
)

// deltaDedupFloors are what content-addressed delta distribution must
// hold at the default chunk size: steady-state wire bytes reduced at least
// 3x (the reduction is exact — fixed training seed, byte counts off the
// transport counters — and measures ~16x), no stream torn in either phase,
// and every reconciled install byte-identical to a full decode of the
// producer's staged blob.
func deltaDedupFloors(r *DeltaDedupResult) error {
	var errs []error
	if r.Reduction < 3 {
		errs = append(errs, fmt.Errorf("reduction %.2fx of steady-state wire bytes, floor 3x", r.Reduction))
	}
	if r.TornStreams != 0 {
		errs = append(errs, fmt.Errorf("torn streams %d, must be 0", r.TornStreams))
	}
	if !r.Identical {
		errs = append(errs, errors.New("identical false: a reconciled install differs from the full decode"))
	}
	return errors.Join(errs...)
}

// storeRecoveryFloors are what the durable chunk store must hold. Warm
// restart: the 64-version history recovers inside 2 s, ~50x the measured
// replay, so the bound rejects O(history²) recovery without flaking on a
// loaded runner. Late joiner: an install served from demoted disk shells
// costs at most 10 ms over one served from the resident cache (minima
// across trials, the two kinds of join taken by turns) — a difference, not
// a ratio, so a speed-up of the shared path cannot fail the gate on what
// read-through adds. Chaos: at least ten
// injected faults, and across every post-crash reopen zero corrupt chunks,
// exactly.
func storeRecoveryFloors(r *StoreRecoveryResult) error {
	var errs []error
	if d := time.Duration(r.RecoveryNS); d > 2*time.Second {
		errs = append(errs, fmt.Errorf("recovery of %d versions took %v, budget 2s", r.Versions, d))
	}
	if d := time.Duration(r.DiskNS - r.CacheNS); d > 10*time.Millisecond {
		errs = append(errs, fmt.Errorf("disk-served join costs %v over the cache-served one (%v vs %v), budget 10ms",
			d, time.Duration(r.DiskNS), time.Duration(r.CacheNS)))
	}
	if !r.Identical {
		errs = append(errs, errors.New("identical false: a late-joiner install differs from the published weights"))
	}
	if r.FaultsInjected < 10 {
		errs = append(errs, fmt.Errorf("faults injected %d, the drill needs at least 10", r.FaultsInjected))
	}
	if r.CorruptChunks != 0 {
		errs = append(errs, fmt.Errorf("corrupt chunks %d served after injected crashes, must be 0", r.CorruptChunks))
	}
	return errors.Join(errs...)
}

// TestGateDeltaDedup replays a steady-state training run over real TCP with
// reconciliation off and on and holds the result to deltaDedupFloors.
func TestGateDeltaDedup(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestGate")
	res, err := RunDeltaDedup(context.Background(), DefaultDeltaDedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", *res)
	if err := deltaDedupFloors(res); err != nil {
		t.Fatal(err)
	}
}

// TestGateStoreRecovery runs the warm restart, the late joiner and the
// chaos loop and holds the result to storeRecoveryFloors.
func TestGateStoreRecovery(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestGate")
	res, err := RunStoreRecovery(context.Background(), DefaultStoreRecoveryConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", *res)
	if err := storeRecoveryFloors(res); err != nil {
		t.Fatal(err)
	}
}

// oneFloor reports whether err is green (want "") or names exactly the
// floor whose message starts with want.
func oneFloor(err error, want string) bool {
	if want == "" {
		return err == nil
	}
	return err != nil && strings.HasPrefix(err.Error(), want) && !strings.Contains(err.Error(), "\n")
}

// TestDeltaDedupFloorsGoRed feeds the comparison results that miss one
// floor each by the smallest step.
func TestDeltaDedupFloorsGoRed(t *testing.T) {
	for _, tc := range []struct {
		r    DeltaDedupResult
		want string
	}{
		{DeltaDedupResult{Reduction: 3, Identical: true}, ""},
		{DeltaDedupResult{Reduction: 2.99, Identical: true}, "reduction"},
		{DeltaDedupResult{Reduction: 3, TornStreams: 1, Identical: true}, "torn streams"},
		{DeltaDedupResult{Reduction: 3}, "identical"},
	} {
		if err := deltaDedupFloors(&tc.r); !oneFloor(err, tc.want) {
			t.Errorf("%+v: got %v, want exactly the %q floor", tc.r, err, tc.want)
		}
	}
}

// TestStoreRecoveryFloorsGoRed does the same for the store's five floors.
func TestStoreRecoveryFloorsGoRed(t *testing.T) {
	onFloors := StoreRecoveryResult{
		RecoveryNS: int64(2 * time.Second), CacheNS: 5, DiskNS: 5 + int64(10*time.Millisecond),
		Identical: true, FaultsInjected: 10,
	}
	for _, tc := range []struct {
		edit func(*StoreRecoveryResult)
		want string
	}{
		{func(*StoreRecoveryResult) {}, ""},
		{func(r *StoreRecoveryResult) { r.RecoveryNS++ }, "recovery"},
		{func(r *StoreRecoveryResult) { r.DiskNS++ }, "disk-served"},
		{func(r *StoreRecoveryResult) { r.Identical = false }, "identical"},
		{func(r *StoreRecoveryResult) { r.FaultsInjected = 9 }, "faults injected"},
		{func(r *StoreRecoveryResult) { r.CorruptChunks = 1 }, "corrupt chunks"},
	} {
		r := onFloors
		tc.edit(&r)
		if err := storeRecoveryFloors(&r); !oneFloor(err, tc.want) {
			t.Errorf("%+v: got %v, want exactly the %q floor", r, err, tc.want)
		}
	}
}
