// Package lockedfix holds golden cases for the lockedsend analyzer. The
// publishHeld method deliberately reintroduces the PR-1 pubsub bug — a
// blocking channel send performed while holding the broker mutex — which
// the analyzer must flag.
package lockedfix

import (
	"net"
	"sync"
	"time"
)

type broker struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	subs map[string]chan int
}

// publishHeld is the PR-1 pubsub bug, verbatim in shape: iterate the
// subscriber map under the lock and block on each subscriber's channel.
func (b *broker) publishHeld(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		ch <- v // want "blocking channel send on ch while holding b\.mu"
	}
}

func (b *broker) recvHeld(ch chan int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-ch // want "blocking channel receive from ch while holding b\.mu"
}

func (b *broker) selectHeld(ch chan int) {
	b.mu.Lock()
	select { // want "blocking select \(no default case\) while holding b\.mu"
	case ch <- 1:
	case <-ch:
	}
	b.mu.Unlock()
}

func (b *broker) sleepHeld() {
	b.rw.RLock()
	time.Sleep(time.Millisecond) // want "time\.Sleep while holding b\.rw"
	b.rw.RUnlock()
}

func (b *broker) connHeld(conn net.Conn, buf []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	conn.Write(buf) // want "net\.Conn Write on conn while holding b\.mu"
}

// gatheredWriteHeld: a writev through net.Buffers is the same conn write.
func (b *broker) gatheredWriteHeld(conn net.Conn, bufs net.Buffers) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bufs.WriteTo(conn) // want "net\.Conn Write on conn while holding b\.mu"
}

// frameWriter is the transport.TCPLink shape: the mutex exists to
// serialise one conn's frames and guards nothing else, which the rule
// cannot know — such a write carries a reviewed waiver saying so.
type frameWriter struct {
	writeMu sync.Mutex
	conn    net.Conn
	bufs    net.Buffers
}

func (f *frameWriter) send(hdr, payload []byte) error {
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	f.bufs = net.Buffers{hdr, payload}
	//lint:ignore lockedsend writeMu exists to serialise one conn's frames; nothing else runs under it
	_, err := f.bufs.WriteTo(f.conn)
	return err
}

// earlyReturnKeepsHeld: the guard returns, so the fall-through path
// still holds the lock at the send.
func (b *broker) earlyReturnKeepsHeld(ch chan int, v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v < 1 {
		return
	}
	ch <- v // want "blocking channel send on ch while holding b\.mu"
}

// nonBlockingSelect is the PR-1 fix shape: every send under the lock has
// a default case, so nothing can block while the lock is held.
func (b *broker) nonBlockingSelect(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// unlockedSend is clean: the send happens after the critical section.
func (b *broker) unlockedSend(ch chan int, v int) {
	b.mu.Lock()
	n := len(b.subs)
	b.mu.Unlock()
	ch <- n + v
}

// branchUnlock releases the lock on every fall-through path before the
// send.
func (b *broker) branchUnlock(ch chan int, v int) {
	b.mu.Lock()
	if v > 0 {
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
	}
	ch <- v
}

// goroutineSend is clean: the function literal runs on its own
// goroutine, which does not hold the lock.
func (b *broker) goroutineSend(ch chan int, v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() { ch <- v }()
}

// suppressedSend demonstrates a reviewed waiver: the channel is fresh,
// buffered, and invisible to other goroutines, so the send cannot block.
func (b *broker) suppressedSend(v int) int {
	ch := make(chan int, 1)
	b.mu.Lock()
	//lint:ignore lockedsend fresh buffered channel with no other reference; the send cannot block
	ch <- v
	b.mu.Unlock()
	return <-ch
}

// --- shapes where the control-flow graph decides ------------------------

// relockLoop re-takes the lock at the end of every iteration: the back
// edge carries it to the loop head, so every send runs under it.
func (b *broker) relockLoop(ch chan int, n int) {
	b.mu.Lock()
	for i := 0; i < n; i++ {
		ch <- i // want "blocking channel send on ch while holding b\.mu"
		b.mu.Unlock()
		b.mu.Lock()
	}
	b.mu.Unlock()
}

// unlockedLoopBody releases around each send: the back edge brings the
// lock back to the loop head, never to the send.
func (b *broker) unlockedLoopBody(v int) {
	b.mu.Lock()
	for _, ch := range b.subs {
		b.mu.Unlock()
		ch <- v
		b.mu.Lock()
	}
	b.mu.Unlock()
}

// selectArms: the blocking select is reported once, at its head. Its
// comms are the select's own operations; a send in an arm body is an
// ordinary one.
func (b *broker) selectArms(in, out chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want "blocking select \(no default case\) while holding b\.mu"
	case v := <-in:
		out <- v // want "blocking channel send on out while holding b\.mu"
	case out <- 0:
	}
}

// selectArmsUnlock releases in every arm, so nothing is held after the
// select; the default makes its receive non-blocking.
func (b *broker) selectArmsUnlock(ch chan int, v int) {
	b.mu.Lock()
	select {
	case <-ch:
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
	ch <- v
}

// gotoSend is a body with goto, which the graph does not model: the whole
// body is skipped, so this send under the lock goes unreported (silence
// over noise).
func (b *broker) gotoSend(ch chan int, v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v < 0 {
		goto done
	}
	ch <- v
done:
}

// --- WaitGroup.Wait under a lock ----------------------------------------

type pool struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

// waitUnderLock deadlocks when the waited goroutines need p.mu.
func (p *pool) waitUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wg.Wait() // want "WaitGroup\.Wait on p\.wg while holding p\.mu"
}

// waitUnderExplicitLock is the same bug without defer.
func (p *pool) waitUnderExplicitLock() {
	p.mu.Lock()
	p.wg.Wait() // want "WaitGroup\.Wait on p\.wg while holding p\.mu"
	p.mu.Unlock()
}

// unlockThenWait is the fix: release the lock, then join.
func (p *pool) unlockThenWait() {
	p.mu.Lock()
	p.mu.Unlock()
	p.wg.Wait()
}

// waitAfterBranchUnlock: both branches unlock before the Wait, so the
// intersection join clears the lock set.
func (p *pool) waitAfterBranchUnlock(flag bool) {
	p.mu.Lock()
	if flag {
		p.mu.Unlock()
	} else {
		p.mu.Unlock()
	}
	p.wg.Wait()
}
