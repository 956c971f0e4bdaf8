// Package faults provides a deterministic, seedable fault injector for
// Viper's delivery pipeline. It models the transient failures that the
// paper's RDMA/MPI substrate hides (dropped connections, stalled peers,
// corrupted wire bytes) so the retry/backoff and PFS-staging degradation
// paths can be exercised in ordinary unit tests: the same seed always
// yields the same fault schedule.
//
// Injection points:
//
//   - Op(name): ask the injector whether one logical operation (a dial,
//     a KV round-trip, a frame send) should fail or stall.
//   - WrapConn: wrap a net.Conn so reads/writes consult the injector and
//     a failing op tears the connection down, mimicking a peer reset.
//   - WrapDial: wrap a dial function so connection establishment itself
//     can fail and every resulting conn is fault-wrapped.
//   - Flipper: flip one chosen byte of one chosen frame, once, for the
//     per-hop corruption drills.
package faults

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/simclock"
)

// ErrInjected marks every failure produced by an Injector.
var ErrInjected = errors.New("faults: injected failure")

// Config parameterizes an Injector. All rates are probabilities in
// [0, 1] evaluated independently per operation.
type Config struct {
	// Seed drives the decision stream; identical seeds reproduce
	// identical fault schedules.
	Seed int64
	// FailRate is the probability an operation fails with ErrInjected.
	FailRate float64
	// DelayRate is the probability an operation is stalled by Delay.
	DelayRate float64
	// Delay is the injected stall duration (charged to Clock).
	Delay time.Duration
	// CorruptRate is the probability a written buffer has one byte
	// flipped (exercises frame checksum validation downstream).
	CorruptRate float64
	// Clock charges injected delays (nil = wall clock).
	Clock simclock.Clock
	// SkipFirst exempts the first N operations from failure/corruption
	// so connection setup can be chaos-free when a scenario needs it.
	SkipFirst int
}

// Stats counts injector activity.
type Stats struct {
	// Ops is the number of decisions taken.
	Ops int64
	// Failures is the number of injected errors.
	Failures int64
	// Delays is the number of injected stalls.
	Delays int64
	// Corruptions is the number of flipped buffers.
	Corruptions int64
}

// Injector makes deterministic per-operation fault decisions. A nil
// *Injector is valid and injects nothing.
type Injector struct {
	cfg   Config
	clock simclock.Clock

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.NewWall()
	}
	return &Injector{cfg: cfg, clock: clock, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the injector counters.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Op decides the fate of one named operation: it may sleep for the
// configured delay, return an injected error, or do nothing. Safe on a
// nil receiver (no faults).
func (i *Injector) Op(name string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	i.stats.Ops++
	exempt := i.cfg.SkipFirst > 0 && i.stats.Ops <= int64(i.cfg.SkipFirst)
	delay := i.rng.Float64() < i.cfg.DelayRate
	fail := !exempt && i.rng.Float64() < i.cfg.FailRate
	if delay {
		i.stats.Delays++
	}
	if fail {
		i.stats.Failures++
	}
	i.mu.Unlock()
	if delay && i.cfg.Delay > 0 {
		i.clock.Sleep(i.cfg.Delay)
	}
	if fail {
		return fmt.Errorf("%w: %s", ErrInjected, name)
	}
	return nil
}

// maybeCorrupt returns a copy of b with one byte flipped when the dice
// say so, or b itself untouched.
func (i *Injector) maybeCorrupt(b []byte) []byte {
	if i == nil || len(b) == 0 || i.cfg.CorruptRate <= 0 {
		return b
	}
	i.mu.Lock()
	exempt := i.cfg.SkipFirst > 0 && i.stats.Ops <= int64(i.cfg.SkipFirst)
	hit := !exempt && i.rng.Float64() < i.cfg.CorruptRate
	var idx int
	if hit {
		idx = i.rng.Intn(len(b))
		i.stats.Corruptions++
	}
	i.mu.Unlock()
	if !hit {
		return b
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	cp[idx] ^= 0xFF
	return cp
}

// conn wraps a net.Conn with fault decisions on every read and write.
type conn struct {
	net.Conn
	inj *Injector
}

// WrapConn returns c with injector-driven reads and writes. A failing
// op closes the underlying conn (the peer observes a reset, matching a
// dropped RDMA/TCP connection). A nil injector returns c unchanged.
func WrapConn(c net.Conn, inj *Injector) net.Conn {
	if inj == nil {
		return c
	}
	return &conn{Conn: c, inj: inj}
}

func (c *conn) Read(p []byte) (int, error) {
	if err := c.inj.Op("read"); err != nil {
		c.Conn.Close()
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if err := c.inj.Op("write"); err != nil {
		c.Conn.Close()
		return 0, err
	}
	n, err := c.Conn.Write(c.inj.maybeCorrupt(p))
	if n > len(p) {
		n = len(p)
	}
	return n, err
}

// WrapDial decorates dial so establishment can fail with ErrInjected
// and every successful conn is fault-wrapped.
func WrapDial(dial func(addr string) (net.Conn, error), inj *Injector) func(addr string) (net.Conn, error) {
	if inj == nil {
		return dial
	}
	return func(addr string) (net.Conn, error) {
		if err := inj.Op("dial"); err != nil {
			return nil, err
		}
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return WrapConn(c, inj), nil
	}
}

// Flipper corrupts exactly one byte of the traffic it is wrapped around,
// at a place chosen by content rather than by dice: the first Write that
// carries marker has the byte offset bytes past the marker's first byte
// inverted (on a copy; the writer's buffer is untouched). It is how a
// drill aims at one field of one frame — a meta tag, the middle of a
// chunk record — on one hop. One Flipper may wrap every incarnation of a
// reconnecting link: it fires once in all.
type Flipper struct {
	marker []byte
	offset int
	fired  atomic.Bool
}

// NewFlipper builds a Flipper for marker and offset.
func NewFlipper(marker string, offset int) *Flipper {
	return &Flipper{marker: []byte(marker), offset: offset}
}

// WireField is s as a TCP frame carries a key, a meta key or a meta value:
// its u64 little-endian length, then s. A drill aims a Flipper at one tag
// value with it (the value's first byte is at offset 8).
func WireField(s string) string {
	return string(binary.LittleEndian.AppendUint64(nil, uint64(len(s)))) + s
}

// Fired reports whether the byte has been flipped.
func (f *Flipper) Fired() bool { return f.fired.Load() }

// Wrap returns c with the flip armed on its writes.
func (f *Flipper) Wrap(c net.Conn) net.Conn { return &flipConn{Conn: c, f: f} }

type flipConn struct {
	net.Conn
	f *Flipper
}

func (c *flipConn) Write(p []byte) (int, error) {
	if at := bytes.Index(p, c.f.marker); at >= 0 && at+c.f.offset < len(p) && c.f.fired.CompareAndSwap(false, true) {
		cp := append([]byte(nil), p...)
		cp[at+c.f.offset] ^= 0xFF
		return c.Conn.Write(cp)
	}
	return c.Conn.Write(p)
}
