package remote

import (
	"errors"
	"testing"
	"time"

	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
)

// TestPumpBackoffInterruptedByClose pins the fix for the pump's backoff
// wait: with the link persistently down and a 30s retry delay, Close
// must still stop the pump immediately. The pre-fix pump slept the full
// backoff on c.clock before noticing c.closed, leaving a goroutine
// behind for leakcheck to flag.
func TestPumpBackoffInterruptedByClose(t *testing.T) {
	clock := &signalClock{Virtual: simclock.NewVirtualManual(), afters: make(chan time.Duration, 16)}
	pol := retry.Policy{
		MaxAttempts: 1, // Recv fails fast; all waiting happens in pump
		BaseDelay:   30 * time.Second,
		MaxDelay:    30 * time.Second,
		Clock:       clock, // nobody advances it: the backoff ends only by Close
	}
	c := &Consumer{
		model:  "m",
		link:   transport.NewReconnectLink(func() (*transport.TCPLink, error) { return nil, errors.New("producer down") }, pol),
		policy: pol,
		clock:  pol.ClockOrWall(),
		frames: make(chan transport.Frame, 1),
		closed: make(chan struct{}),
	}
	done := make(chan struct{})
	go func() {
		c.pump()
		close(done)
	}()
	clock.waitAfter(t, 30*time.Second) // the first Recv failed; the pump is in its backoff wait
	close(c.closed)
	c.link.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pump still running 2s after Close; its backoff wait is not interruptible")
	}
}
