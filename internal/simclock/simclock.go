// Package simclock provides a pluggable clock abstraction so that every
// latency-bearing component in Viper can run either against wall-clock time
// (for real two-process deployments) or against a deterministic virtual
// clock (for discrete-event experiment simulations).
//
// The virtual clock is the backbone of the experiment harness: transfers,
// training iterations, and inference requests "sleep" by advancing virtual
// time, which lets a 50,000-inference coupled run complete in milliseconds
// while preserving the exact timeline arithmetic of the paper's Section 4.3.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts the passage of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d on this clock's timeline.
	Sleep(d time.Duration)
	// After returns a channel that delivers the then-current time once d
	// has elapsed on this clock's timeline.
	After(d time.Duration) <-chan time.Time
}

// Wall is a Clock backed by the real system clock.
type Wall struct{}

// NewWall returns a wall-clock Clock.
func NewWall() Wall { return Wall{} }

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a deterministic discrete-event clock. Time advances only via
// Advance or when every registered sleeper is blocked and AutoAdvance is
// enabled (the typical simulation mode): the clock then jumps straight to
// the earliest pending wakeup.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	wakeups  wakeupHeap
	sleepers int // number of goroutines currently blocked in Sleep/After
	workers  int // number of goroutines registered as simulation actors
	auto     bool
	cond     *sync.Cond
}

type wakeup struct {
	at time.Time
	ch chan time.Time
}

type wakeupHeap []wakeup

func (h wakeupHeap) Len() int            { return len(h) }
func (h wakeupHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h wakeupHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wakeupHeap) Push(x interface{}) { *h = append(*h, x.(wakeup)) }
func (h *wakeupHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewVirtual returns a virtual clock starting at epoch, with auto-advance
// enabled: whenever all registered workers are asleep, the clock jumps to
// the earliest pending wakeup.
func NewVirtual() *Virtual {
	v := &Virtual{now: time.Unix(0, 0), auto: true}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// NewVirtualManual returns a virtual clock that only advances via Advance.
func NewVirtualManual() *Virtual {
	v := NewVirtual()
	v.auto = false
	return v
}

// RegisterWorker declares that one more goroutine participates in the
// simulation. Auto-advance fires only when all registered workers are
// blocked in Sleep/After, which prevents the clock from racing ahead of a
// worker that is still computing.
func (v *Virtual) RegisterWorker() {
	v.mu.Lock()
	v.workers++
	v.mu.Unlock()
}

// UnregisterWorker removes a worker registration (e.g., the goroutine has
// finished its simulated role).
func (v *Virtual) UnregisterWorker() {
	v.mu.Lock()
	v.workers--
	v.maybeAutoAdvanceLocked()
	v.mu.Unlock()
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock. If d <= 0 it returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	if d <= 0 {
		//lint:ignore lockedsend ch was made above with capacity 1 and has no other reference yet, so this send cannot block
		ch <- v.now
		v.mu.Unlock()
		return ch
	}
	heap.Push(&v.wakeups, wakeup{at: v.now.Add(d), ch: ch})
	v.sleepers++
	v.maybeAutoAdvanceLocked()
	v.mu.Unlock()
	return ch
}

// Advance moves virtual time forward by d, firing any wakeups that fall due
// in order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.advanceToLocked(target)
	v.mu.Unlock()
}

// AdvanceTo moves virtual time to t (no-op if t is in the past).
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	v.advanceToLocked(t)
	v.mu.Unlock()
}

func (v *Virtual) advanceToLocked(target time.Time) {
	for len(v.wakeups) > 0 && !v.wakeups[0].at.After(target) {
		v.fireLocked(heap.Pop(&v.wakeups).(wakeup))
	}
	if target.After(v.now) {
		v.now = target
	}
}

// maybeAutoAdvanceLocked jumps to the earliest wakeup when every registered
// worker is blocked.
func (v *Virtual) maybeAutoAdvanceLocked() {
	if !v.auto || len(v.wakeups) == 0 {
		return
	}
	if v.workers > 0 && v.sleepers < v.workers {
		return
	}
	v.fireLocked(heap.Pop(&v.wakeups).(wakeup))
}

// fireLocked delivers one due wakeup and retires its sleeper. Sleeper
// accounting happens here, at fire time, rather than in a per-After
// relay goroutine: the old relay (`go func() { t := <-ch; ... }`)
// leaked one goroutine for every wakeup that never fired — exactly the
// class internal/leakcheck now polices. The wakeup channel has capacity
// 1 and receives exactly this one send, so delivering under v.mu cannot
// block.
func (v *Virtual) fireLocked(w wakeup) {
	if w.at.After(v.now) {
		v.now = w.at
	}
	v.sleepers--
	w.ch <- v.now
}

// Pending reports the number of outstanding wakeups.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.wakeups)
}

// Elapsed returns the virtual time elapsed since the epoch.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now.Sub(time.Unix(0, 0))
}
