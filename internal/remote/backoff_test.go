package remote

import (
	"testing"
	"time"

	"viper/internal/retry"
	"viper/internal/simclock"
)

func TestBackoffFollowsPolicy(t *testing.T) {
	p := retry.Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Multiplier: 2}
	got := []time.Duration{initialBackoff(p)}
	for i := 0; i < 4; i++ {
		got = append(got, nextBackoff(p, got[len(got)-1]))
	}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, // capped at MaxDelay
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backoff sequence = %v, want %v", got, want)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var p retry.Policy // zero policy: 50ms start, doubling, uncapped
	if d := initialBackoff(p); d != 50*time.Millisecond {
		t.Fatalf("initialBackoff(zero) = %v, want 50ms", d)
	}
	if d := nextBackoff(p, 50*time.Millisecond); d != 100*time.Millisecond {
		t.Fatalf("nextBackoff(zero, 50ms) = %v, want 100ms", d)
	}
}

// TestPolicyClockInjection is the satellite-1 regression: the consumer's
// reconnect backoff sleeps on the policy's clock, so a virtual clock
// makes retry storms simulable instead of wall-clock-slow.
func TestPolicyClockInjection(t *testing.T) {
	if _, ok := (retry.Policy{}).ClockOrWall().(simclock.Wall); !ok {
		t.Fatal("nil policy clock must default to the wall clock")
	}
	v := simclock.NewVirtualManual()
	if got := (retry.Policy{Clock: v}).ClockOrWall(); got != simclock.Clock(v) {
		t.Fatalf("ClockOrWall ignored the injected clock: %v", got)
	}
}
