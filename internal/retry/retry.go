// Package retry implements bounded retries with exponential backoff and
// jitter for Viper's networked layers (transport links, the metadata
// client, the remote producer/consumer). Delays are charged against a
// pluggable simclock.Clock, so virtual-time tests exercise the full
// backoff schedule in microseconds of wall time, and the jitter stream
// is seedable, keeping fault-injection runs fully deterministic.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"viper/internal/simclock"
)

// Policy bounds a retry loop. The zero value performs exactly one
// attempt (no retries); use Default for the standard schedule.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (values < 1 mean 1: no retries).
	MaxAttempts int
	// BaseDelay is the wait before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay (0 = uncapped).
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts (values < 1 mean 2).
	Multiplier float64
	// Jitter is the fraction of each delay randomized as ±Jitter/2
	// (e.g. 0.2 spreads a 100ms delay across 90–110ms). 0 disables it.
	Jitter float64
	// Clock charges the backoff delays (nil = wall clock).
	Clock simclock.Clock
	// Seed drives the jitter stream, making schedules reproducible.
	Seed int64
	// OnRetry, if set, observes each failed attempt before its backoff
	// sleep (attempt numbering starts at 1).
	OnRetry func(attempt int, err error, delay time.Duration)
}

// Default is the standard policy for networked operations: 5 attempts,
// 10ms base delay doubling to a 1s cap, 20% jitter.
func Default(clock simclock.Clock) Policy {
	return Policy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		Clock:       clock,
	}
}

// ClockOrWall returns the policy's injected clock, falling back to the
// wall clock. Every latency-bearing wait in the networked layers charges
// against it, so chaos tests that inject a virtual clock never burn wall
// time in backoffs (see viper-vet's simclockpurity analyzer).
func (p Policy) ClockOrWall() simclock.Clock {
	if p.Clock != nil {
		return p.Clock
	}
	return simclock.NewWall()
}

// ErrExhausted marks errors returned after the attempt budget ran out.
var ErrExhausted = errors.New("retry: attempts exhausted")

// ExhaustedError reports a retry loop that ran out of attempts. It
// unwraps to both ErrExhausted and the last attempt's error.
type ExhaustedError struct {
	// Attempts is the number of attempts performed.
	Attempts int
	// Last is the error from the final attempt.
	Last error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("retry: %d attempts exhausted: %v", e.Attempts, e.Last)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *ExhaustedError) Unwrap() []error { return []error{ErrExhausted, e.Last} }

// permanentError marks an error as non-retryable while staying
// transparent to errors.Is/As on the wrapped error.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent marks err as non-retryable: Do returns it immediately
// without consuming further attempts. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Do runs op until it succeeds, returns a permanent error, or the
// attempt budget is exhausted (in which case the result is an
// *ExhaustedError wrapping the last failure). The attempt argument
// starts at 1. A first attempt that settles it costs nothing beyond op:
// the jitter source is seeded only once a retry needs it.
func (p Policy) Do(op func(attempt int) error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	clock := p.ClockOrWall()
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	var rng *rand.Rand
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		err := op(attempt)
		if err == nil || IsPermanent(err) {
			return err
		}
		if attempt >= attempts {
			return &ExhaustedError{Attempts: attempt, Last: err}
		}
		d := delay
		if p.Jitter > 0 && d > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			// Spread the delay across ±Jitter/2 around its nominal value.
			d += time.Duration((rng.Float64() - 0.5) * p.Jitter * float64(d))
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		clock.Sleep(d)
		delay = time.Duration(float64(delay) * mult)
		if p.MaxDelay > 0 && delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
