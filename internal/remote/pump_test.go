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
	pol := retry.Policy{
		MaxAttempts: 1, // Recv fails fast; all waiting happens in pump
		BaseDelay:   30 * time.Second,
		MaxDelay:    30 * time.Second,
		Clock:       simclock.NewWall(),
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
	// Let the pump fail its first Recv and enter the 30s backoff wait.
	time.Sleep(50 * time.Millisecond)
	close(c.closed)
	c.link.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pump still running 2s after Close; its backoff wait is not interruptible")
	}
}
