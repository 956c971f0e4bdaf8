// Golden fixture for lockorder, loaded under viper/internal/transport
// (an in-scope delivery package). The Link/Pacer pair reproduces the
// PR-6 historical bug class: the send path holds the link lock and
// calls into the pacer's sleep-and-retry helper, while the pacer's
// tick path holds the pacer lock and calls back into the link — a
// helper-mediated AB-BA cycle only visible through callee summaries.
package lockfix

import "sync"

// --- direct AB-BA on package-level mutexes -----------------------------

var regMu sync.Mutex
var statsMu sync.Mutex

func registerThenCount() {
	regMu.Lock()
	statsMu.Lock() // want "acquiring .*statsMu while holding .*regMu, but another path acquires them in the opposite order"
	statsMu.Unlock()
	regMu.Unlock()
}

func countThenRegister() {
	statsMu.Lock()
	regMu.Lock() // want "acquiring .*regMu while holding .*statsMu, but another path acquires them in the opposite order"
	regMu.Unlock()
	statsMu.Unlock()
}

// --- helper-mediated AB-BA (the PR-6 retry-path shape) -----------------

type Link struct {
	mu    sync.Mutex
	pacer *Pacer
}

type Pacer struct {
	mu   sync.Mutex
	link *Link
}

// waitTurn is the sleep-and-retry helper: it takes the pacer lock on
// its own, so its acquire set propagates to callers via the summary.
func (p *Pacer) waitTurn() {
	p.mu.Lock()
	defer p.mu.Unlock()
}

func (l *Link) send() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pacer.waitTurn() // want "call to waitTurn acquires .*Pacer.mu while holding .*Link.mu"
}

func (l *Link) notify() {
	l.mu.Lock()
	defer l.mu.Unlock()
}

func (p *Pacer) tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.link.notify() // want "call to notify acquires .*Link.mu while holding .*Pacer.mu"
}

// --- self-deadlock (the degenerate cycle) ------------------------------

type Registry struct {
	mu    sync.Mutex
	items map[string]int
}

func (r *Registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// add calls size while already holding the same (non-reentrant) mutex.
func (r *Registry) add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items[name] = r.size() // want "call to size acquires .*Registry.mu while it is already held"
}

func (r *Registry) reenter() {
	r.mu.Lock()
	r.mu.Lock() // want "acquiring .*Registry.mu while it is already held"
	r.mu.Unlock()
	r.mu.Unlock()
}

// --- clean shapes ------------------------------------------------------

type Conn struct{ mu sync.Mutex }

type Pool struct {
	mu   sync.Mutex
	conn *Conn
}

// broadcast and gc nest Pool.mu -> Conn.mu consistently: one direction,
// no cycle, no report.
func (p *Pool) broadcast() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.mu.Lock()
	p.conn.mu.Unlock()
}

func (p *Pool) gc() {
	p.mu.Lock()
	p.conn.mu.Lock()
	p.conn.mu.Unlock()
	p.mu.Unlock()
}

// handoff releases before acquiring: no nesting, so the Conn-before-Pool
// order here cannot conflict with the Pool-before-Conn order above.
func handoff(c *Conn, p *Pool) {
	c.mu.Lock()
	c.mu.Unlock()
	p.mu.Lock()
	p.mu.Unlock()
}

// pickOne takes regMu in one arm and statsMu in another: the arms of a
// select are alternatives, so the two never nest (an order between them
// here would close the regMu/statsMu cycle above a second time).
func pickOne(a, b chan int) {
	select {
	case <-a:
		regMu.Lock()
		defer regMu.Unlock()
	case <-b:
		statsMu.Lock()
		defer statsMu.Unlock()
	}
}

// Gauge locks through an embedded mutex's promoted method; the identity
// is the embedding type, and with no opposing order it stays clean.
type Gauge struct {
	sync.Mutex
	n int
}

func bump(g *Gauge) {
	g.Lock()
	defer g.Unlock()
	g.n++
}

// localOnly uses a function-local mutex: no cross-function identity,
// never part of the graph.
func localOnly() {
	var mu sync.Mutex
	mu.Lock()
	regMu.Lock()
	regMu.Unlock()
	mu.Unlock()
}
