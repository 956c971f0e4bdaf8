package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run sees the program only from outside: the benchmark
// installs net.Conn wrappers through the LinkWrap / RelayDial /
// LinkDial / IngestWrap / ServeWrap hooks and each wrapper records the
// first and last byte it carries for the op in flight. The loop is
// closed with one version in flight, so every byte a connection moves
// between an op's start and end belongs to that op and no frame is
// parsed.

// point names which traffic a wrapped connection records.
type point int

const (
	prodTx   point = iota // producer-side link writes (direct link or relay ingest link)
	ingestRx              // relay ingest-side reads
	serveTx               // relay serve-side writes, one connection per consumer
	consRx                // consumer-side link reads
)

// mark is the first and last byte time (ns since tracer.base) one
// connection carried for the op in flight.
type mark struct {
	first, last int64
	accepted    int64 // serveTx only: when the relay accepted the connection
}

type connKey struct {
	pt  point
	idx int
}

// span is one line of bench/out/trace-<workload>.jsonl.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Conn    int    `json:"conn,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer holds the marks of the op in flight and every finished span.
// Spans stay in memory until the run ends.
type tracer struct {
	base time.Time
	cur  atomic.Int64 // id of the traced op in flight, 0 when none

	mu     sync.Mutex
	marks  map[connKey]*mark
	serves int // serve connections accepted so far
	spans  []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), marks: make(map[connKey]*mark)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

// begin opens op: bytes the wrapped connections move from now on are
// attributed to it.
func (t *tracer) begin(op int) { t.cur.Store(int64(op)) }

// end closes the op in flight and returns its marks.
func (t *tracer) end() map[connKey]*mark {
	t.cur.Store(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.marks
	t.marks = make(map[connKey]*mark)
	return m
}

func (t *tracer) record(k connKey, first, last, accepted int64) {
	if t.cur.Load() == 0 {
		return
	}
	t.mu.Lock()
	m := t.marks[k]
	if m == nil {
		m = &mark{first: first, accepted: accepted}
		t.marks[k] = m
	}
	m.last = last
	t.mu.Unlock()
}

// wrap decorates conn so its traffic at pt is recorded under idx.
func (t *tracer) wrap(conn net.Conn, pt point, idx int) net.Conn {
	return &tracedConn{Conn: conn, t: t, key: connKey{pt, idx}, accepted: t.now()}
}

// wrapServe is the relay ServeWrap hook: connections are numbered in
// accept order.
func (t *tracer) wrapServe(conn net.Conn) net.Conn {
	t.mu.Lock()
	idx := t.serves
	t.serves++
	t.mu.Unlock()
	return t.wrap(conn, serveTx, idx)
}

// dial returns a dial hook whose connections record at pt under idx.
func (t *tracer) dial(pt point, idx int) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return t.wrap(conn, pt, idx), nil
	}
}

type tracedConn struct {
	net.Conn
	t        *tracer
	key      connKey
	accepted int64
}

// Read and Write pass straight through while no traced op is in
// flight, so untraced ops on a wrapped stack pay one atomic load per call.
func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && (c.key.pt == ingestRx || c.key.pt == consRx) && c.t.cur.Load() != 0 {
		at := c.t.now()
		c.t.record(c.key, at, at, c.accepted)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.key.pt != prodTx && c.key.pt != serveTx || c.t.cur.Load() == 0 {
		return c.Conn.Write(p)
	}
	start := c.t.now()
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.t.record(c.key, start, c.t.now(), c.accepted)
	}
	return n, err
}

// opTimes are the instants the benchmark itself observes around one op.
type opTimes struct {
	start      time.Time // Publish entry (cold join: NewConsumer entry)
	connected  time.Time // cold join: NewConsumer return
	pubDone    time.Time // Publish return (zero on cold join)
	ready      time.Time // the slowest consumer's Next return
	lastCons   int       // index of that consumer
	haveListed time.Time // delta: HaveLists caught up (zero otherwise)
}

// chainSpans are the spans on the blocking chain from trigger to ready.
var chainSpans = map[string]bool{
	"remote.connect":               true,
	"remote.publish_to_first_byte": true,
	"remote.link_tx":               true,
	"remote.stage_notify":          true,
	"relay.read_through":           true,
	"relay.commit":                 true,
	"relay.serve":                  true,
	"remote.install_tail":          true,
}

// opSpans is what one traced op contributes to the per-layer metrics:
// span durations by name (ms) and the share of its ready time the
// blocking-chain spans cover.
type opSpans struct {
	ms       map[string]float64
	coverage float64
	negative int // spans whose self time came out negative
}

// finish turns the marks of a finished op into spans, computes self
// times, and appends the spans to the trace.
func (t *tracer) finish(op int, ot opTimes, marks map[connKey]*mark, coldJoin bool) opSpans {
	start, ready := t.ns(ot.start), t.ns(ot.ready)
	var spans []span
	add := func(name, parent string, conn int, s, e int64) {
		if e < s {
			e = s
		}
		spans = append(spans, span{Op: op, Name: name, Parent: parent, Conn: conn, StartNS: s, EndNS: e})
	}
	end := ready
	if !ot.pubDone.IsZero() {
		pubDone := t.ns(ot.pubDone)
		if pubDone > end {
			end = pubDone
		}
		add("remote.publish", "op", 0, start, pubDone)
		if m := marks[connKey{prodTx, 0}]; m != nil {
			add("remote.publish_to_first_byte", "remote.publish", 0, start, m.first)
			add("remote.link_tx", "remote.publish", 0, m.first, m.last)
			add("remote.stage_notify", "remote.publish", 0, m.last, pubDone)
		}
	}
	if coldJoin {
		add("remote.connect", "op", 0, start, t.ns(ot.connected))
	}
	ingest := marks[connKey{ingestRx, 0}]
	if ingest != nil {
		add("relay.ingest", "op", 0, ingest.first, ingest.last)
	}
	firstServe := int64(-1)
	for k, m := range marks {
		if k.pt != serveTx {
			continue
		}
		add("relay.serve", "op", k.idx, m.first, m.last)
		if firstServe < 0 || m.first < firstServe {
			firstServe = m.first
		}
		if coldJoin {
			add("relay.read_through", "op", k.idx, m.accepted, m.first)
		}
	}
	if ingest != nil && firstServe >= 0 {
		add("relay.commit", "op", 0, ingest.last, firstServe)
	}
	if m := marks[connKey{consRx, ot.lastCons}]; m != nil {
		add("remote.link_rx", "op", ot.lastCons, m.first, m.last)
		add("remote.install_tail", "op", ot.lastCons, m.last, ready)
	}
	for _, s := range spans {
		if s.EndNS > end {
			end = s.EndNS
		}
	}
	root := span{Op: op, Name: "op", StartNS: start, EndNS: end}
	if !ot.haveListed.IsZero() {
		// After the op: how long until the publisher may plan the next delta.
		spans = append(spans, span{Op: op, Name: "remote.have_list_wait", StartNS: ready, EndNS: t.ns(ot.haveListed)})
	}
	spans = append(spans, root)

	out := opSpans{ms: make(map[string]float64)}
	var chain [][2]int64
	for i := range spans {
		s := &spans[i]
		var kids [][2]int64
		for _, c := range spans {
			if c.Parent == s.Name && c.Name != s.Name {
				kids = append(kids, [2]int64{c.StartNS, c.EndNS})
			}
		}
		// Children are not clipped to the parent: one that sticks out
		// shows up as negative self time instead of being hidden.
		s.SelfNS = (s.EndNS - s.StartNS) - covered(kids, math.MinInt64, math.MaxInt64)
		if s.SelfNS < 0 {
			out.negative++
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		if d > out.ms[s.Name] {
			out.ms[s.Name] = d // two sessions: the slower one counts
		}
		if chainSpans[s.Name] {
			chain = append(chain, [2]int64{s.StartNS, s.EndNS})
		}
	}
	if ready > start {
		out.coverage = float64(covered(chain, start, ready)) / float64(ready-start)
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
