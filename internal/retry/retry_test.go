package retry

import (
	"errors"
	"slices"
	"testing"
	"time"

	"viper/internal/simclock"
)

func TestDoSucceedsFirstAttempt(t *testing.T) {
	calls := 0
	err := Policy{MaxAttempts: 3}.Do(func(int) error { calls++; return nil })
	if err != nil || calls != 1 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	clock := simclock.NewVirtual()
	calls := 0
	err := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Clock: clock}.Do(func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
	// Two backoffs: 10ms + 20ms of virtual time.
	if got := clock.Elapsed(); got != 30*time.Millisecond {
		t.Fatalf("elapsed = %v, want 30ms", got)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	clock := simclock.NewVirtual()
	boom := errors.New("boom")
	calls := 0
	err := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Clock: clock}.Do(func(int) error {
		calls++
		return boom
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrExhausted wrapping boom", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 4 {
		t.Fatalf("err = %#v", err)
	}
}

func TestPermanentShortCircuits(t *testing.T) {
	sentinel := errors.New("bad request")
	calls := 0
	err := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, Clock: simclock.NewVirtual()}.Do(func(int) error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent errors must not be retried)", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want it to wrap the sentinel", err)
	}
	if !IsPermanent(err) {
		t.Fatal("IsPermanent must survive the return path")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must stay nil")
	}
}

func TestBackoffScheduleCapsAtMaxDelay(t *testing.T) {
	clock := simclock.NewVirtual()
	var delays []time.Duration
	p := Policy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		Multiplier:  2,
		Clock:       clock,
		OnRetry:     func(_ int, _ error, d time.Duration) { delays = append(delays, d) },
	}
	_ = p.Do(func(int) error { return errors.New("x") })
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if delays[i] != w*time.Millisecond {
			t.Fatalf("delay[%d] = %v, want %vms (all: %v)", i, delays[i], w, delays)
		}
	}
}

func TestJitterIsBoundedAndDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clock := simclock.NewVirtual()
		var delays []time.Duration
		p := Policy{
			MaxAttempts: 8,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Jitter:      0.2,
			Seed:        42,
			Clock:       clock,
			OnRetry:     func(_ int, _ error, d time.Duration) { delays = append(delays, d) },
		}
		_ = p.Do(func(int) error { return errors.New("x") })
		return delays
	}
	a, b := run(), run()
	sawJitter := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules: %v vs %v", a, b)
		}
		if a[i] < 90*time.Millisecond || a[i] > 110*time.Millisecond {
			t.Fatalf("delay %v outside ±10%% band", a[i])
		}
		if a[i] != 100*time.Millisecond {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jitter never perturbed any delay")
	}
}

// TestFirstAttemptSuccessIsFree: every link frame and KV round trip goes
// through Do, so an attempt that succeeds at once must not pay for the
// jitter source a retry would need — and seeding it lazily must leave a
// failing op's delays exactly what they were when it was seeded up front.
func TestFirstAttemptSuccessIsFree(t *testing.T) {
	p := Default(simclock.NewVirtual())
	p.Seed = 7
	op := func(int) error { return nil }
	if n := testing.AllocsPerRun(100, func() { _ = p.Do(op) }); n != 0 {
		t.Fatalf("a first-attempt success allocated %v times per call, want 0", n)
	}

	var delays []time.Duration
	p.MaxAttempts = 8
	p.OnRetry = func(_ int, _ error, d time.Duration) { delays = append(delays, d) }
	_ = p.Do(func(int) error { return errors.New("x") })
	// The schedule of the source seeded before the first attempt.
	want := []time.Duration{10837784, 18926029, 37931101, 86584994, 166343537, 297353981, 621339482}
	if !slices.Equal(delays, want) {
		t.Fatalf("delays %v, want %v", delays, want)
	}
}

func TestZeroPolicyIsSingleAttempt(t *testing.T) {
	calls := 0
	err := Policy{}.Do(func(int) error { calls++; return errors.New("x") })
	if calls != 1 || !errors.Is(err, ErrExhausted) {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}
