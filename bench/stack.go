package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/kvstore"
	"viper/internal/pubsub"
	"viper/internal/relay"
	"viper/internal/remote"
	"viper/internal/vformat"
)

const (
	modelName = "bench"
	deltaEps  = 1e-3
	// opTimeout bounds one op; a failed op contributes it to Σ ready.
	opTimeout = 10 * time.Second
	// frameBuffer lets a whole 64-chunk stream sit in the consumer's pump,
	// so a stream is never shed to the staging path.
	frameBuffer = 4096
	// storeHistory bounds the relay store of relay_store_fanout2_16m, so
	// a run's directory stays at ~8 versions however long it measures.
	storeHistory = 8
)

// spec is one workload: which parts of the stack stand between the
// publisher and ready, and how successive versions differ.
type spec struct {
	name      string
	why       string
	relay     bool    // publish into a store-backed relay
	consumers int     // consumers attached while publishing
	deltaEps  float64 // > 0: delta reconcile on, base-suppressed encode
	coldJoin  bool    // op = fresh consumer joins a reopened store-backed relay
}

var workloads = []spec{
	{name: "direct_full_16m", consumers: 1,
		why: "memory-first direct TCP path, pipelined full stream: vformat encode/decode, transport and the kvstore staging Set do all the work"},
	{name: "relay_store_fanout2_16m", relay: true, consumers: 2,
		why: "only workload with relay ingest-verify/intern, chunkstore append+fsync+commit and fan-out on the path; every byte crosses three TCP hops"},
	{name: "delta_steady_16m", consumers: 1, deltaEps: deltaEps,
		why: "same layers used differently: base-suppressed encode, SHA hashing, PlanDelta and manifest reconcile dominate, the wire carries ~3 % of the bytes"},
	{name: "cold_join_16m", relay: true, coldJoin: true,
		why: "reads beside writes: chunkstore segment scan on open and read-through serve, relay serve with no encoder running"},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// stack is one workload's servers and clients, all in this process on
// 127.0.0.1:0.
type stack struct {
	sp  spec
	sc  scale
	gen *model
	tr  *tracer // nil on an untraced stack

	kvSrv      *kvstore.Server
	psSrv      *pubsub.Server
	metaAddr   string
	notifyAddr string
	rel        *relay.Relay
	storeDir   string
	prod       *remote.Producer
	cons       []*remote.Consumer

	version uint64 // last version published on this stack
	// seedStalls are the Publish entry→return times of the cold-join
	// seeding publishes; joined sums the counters of the cold-join
	// consumers already closed.
	seedStalls []time.Duration
	joined     remote.ConsumerStats
}

// setUp generates the model from seed and brings the workload's stack
// to the point where the next op is a timed one: servers started,
// links dialled, warm-up ops done and, on cold_join, the store seeded
// and the relay reopened.
func setUp(sp spec, sc scale, seed int64, dir string, tr *tracer) (*stack, error) {
	st := &stack{sp: sp, sc: sc, tr: tr, gen: newModel(seed, sc)}
	if err := st.start(dir); err != nil {
		st.tearDown()
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	for i := 0; i < sc.warmups; i++ {
		if s := st.op(0); s.err != nil {
			st.tearDown()
			return nil, fmt.Errorf("%s: warm-up op %d: %w", sp.name, i, s.err)
		}
	}
	return st, nil
}

func (st *stack) start(dir string) error {
	st.kvSrv = kvstore.NewServer(kvstore.NewStore())
	addr, err := st.kvSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	st.metaAddr = addr
	st.psSrv = pubsub.NewServer(pubsub.NewBroker(64))
	if addr, err = st.psSrv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	st.notifyAddr = addr
	if st.sp.relay {
		st.storeDir, err = os.MkdirTemp(dir, "store-")
		if err != nil {
			return err
		}
		if err := st.openRelay(); err != nil {
			return err
		}
	}
	if st.sp.coldJoin {
		return st.seedAndReopen()
	}
	if err := st.startProducer(st.sp.deltaEps > 0, st.sp.deltaEps, st.sp.consumers); err != nil {
		return err
	}
	if st.sp.deltaEps > 0 {
		// One seeding version: the first publish ships whole and fills the
		// consumer's chunk cache; every later one is a delta.
		if s := st.op(0); s.err != nil {
			return fmt.Errorf("seeding version: %w", s.err)
		}
	}
	return nil
}

func (st *stack) openRelay() error {
	cfg := relay.Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: st.metaAddr, NotifyAddr: st.notifyAddr,
		StoreDir: st.storeDir,
	}
	if !st.sp.coldJoin {
		cfg.StoreRetention = chunkstore.Retention{MaxVersions: storeHistory}
	}
	if st.tr != nil {
		cfg.IngestWrap = func(c net.Conn) net.Conn { return st.tr.wrap(c, ingestRx, 0) }
		cfg.ServeWrap = st.tr.wrapServe
	}
	rel, err := relay.New(cfg)
	if err != nil {
		return err
	}
	st.rel = rel
	return nil
}

// startProducer connects the producer and n consumers. A direct-link
// producer blocks in NewProducer until its consumer dials, so it is
// constructed on a goroutine of its own.
func (st *stack) startProducer(delta bool, eps float64, n int) error {
	pcfg := remote.ProducerConfig{
		Model: modelName, MetaAddr: st.metaAddr, NotifyAddr: st.notifyAddr,
		ChunkSize:             st.sc.chunkBytes(),
		DisableDeltaReconcile: !delta,
		DeltaEps:              eps,
	}
	if st.rel != nil {
		pcfg.RelayAddr = st.rel.IngestAddr()
		if st.tr != nil {
			pcfg.RelayDial = st.tr.dial(prodTx, 0)
		}
		prod, err := remote.NewProducer(pcfg)
		if err != nil {
			return err
		}
		st.prod = prod
		return st.attachConsumers(st.rel.ServeAddr(), n, !delta)
	}
	listening := make(chan string, 1)
	pcfg.ListenAddr = "127.0.0.1:0"
	pcfg.OnListen = func(a string) { listening <- a }
	if st.tr != nil {
		pcfg.LinkWrap = func(c net.Conn) net.Conn { return st.tr.wrap(c, prodTx, 0) }
	}
	type made struct {
		prod *remote.Producer
		err  error
	}
	done := make(chan made, 1)
	go func() {
		prod, err := remote.NewProducer(pcfg)
		done <- made{prod, err}
	}()
	select {
	case linkAddr := <-listening:
		if err := st.attachConsumers(linkAddr, n, !delta); err != nil {
			return err // the producer stays parked in Accept; the run is over anyway
		}
	case m := <-done:
		if m.err == nil {
			m.prod.Close()
			m.err = errors.New("producer connected before it listened")
		}
		return m.err
	}
	m := <-done
	st.prod = m.prod
	return m.err
}

func (st *stack) attachConsumers(linkAddr string, n int, noDelta bool) error {
	for i := 0; i < n; i++ {
		c, err := st.newConsumer(linkAddr, i, noDelta)
		if err != nil {
			return err
		}
		st.cons = append(st.cons, c)
	}
	return nil
}

func (st *stack) newConsumer(linkAddr string, idx int, noDelta bool) (*remote.Consumer, error) {
	cfg := remote.ConsumerConfig{
		Model: modelName, MetaAddr: st.metaAddr, NotifyAddr: st.notifyAddr,
		ProducerAddr:          linkAddr,
		DisableDeltaReconcile: noDelta,
		FrameBuffer:           frameBuffer,
	}
	if st.tr != nil {
		cfg.LinkDial = st.tr.dial(consRx, idx)
	}
	return remote.NewConsumer(cfg)
}

// seedAndReopen is the cold-join set-up: publish seedVers sparse-changed
// versions into the store-backed relay with no consumer attached, wait
// until all are stored, then close the relay and reopen it on the same
// directory, so every version is a hydrated shell with nothing resident.
func (st *stack) seedAndReopen() error {
	if err := st.startProducer(true, 0, 0); err != nil {
		return err
	}
	for v := 1; v <= st.sc.seedVers; v++ {
		st.gen.sparseStep(deltaEps)
		// As in delta_steady: wait until the relay's advertisement of
		// version v-1 arrived, so v1 ships whole and every later version
		// ships as a delta, run after run.
		if err := waitFor("relay have-list", func() bool { return st.prod.Stats().HaveLists >= int64(v-1) }); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := st.prod.Publish(st.gen.snap, uint64(v), 0); err != nil {
			return fmt.Errorf("seed v%d: %w", v, err)
		}
		st.seedStalls = append(st.seedStalls, time.Since(t0))
		st.version = uint64(v)
	}
	want := int64(st.sc.seedVers)
	if err := waitFor("relay store", func() bool { return st.rel.Stats().StoredVersions >= want }); err != nil {
		return err
	}
	st.prod.Close()
	st.prod = nil
	st.rel.Close()
	st.rel = nil
	if err := st.openRelay(); err != nil {
		return err
	}
	if got := st.rel.Stats().HydratedVersions; got != want {
		return fmt.Errorf("reopened relay hydrated %d versions, want %d", got, want)
	}
	return nil
}

// waitFor polls cond (untimed, between ops) for up to opTimeout.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(opTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (st *stack) tearDown() {
	for _, c := range st.cons {
		c.Close()
	}
	if st.prod != nil {
		st.prod.Close()
	}
	if st.rel != nil {
		st.rel.Close()
	}
	if st.psSrv != nil {
		st.psSrv.Close()
	}
	if st.kvSrv != nil {
		st.kvSrv.Close()
	}
	if st.storeDir != "" {
		os.RemoveAll(st.storeDir)
	}
}

// sample is the outcome of one op.
type sample struct {
	ready  time.Duration // trigger → verified checkpoint (opTimeout when failed)
	stall  time.Duration // Publish entry → return
	skew   time.Duration // first vs last consumer ready
	err    error         // nil = the op counts as delivered
	traced bool          // the op ran with an id: the conn wrappers recorded it
	spans  opSpans       // traced ops that succeeded only
}

// op runs one closed-loop op; id > 0 traces it (the stack must have a
// tracer).
func (st *stack) op(id int) sample {
	if st.sp.coldJoin {
		return st.joinOp(id)
	}
	return st.publishOp(id)
}

type nextResult struct {
	idx  int
	ckpt *vformat.Checkpoint
	err  error
	at   time.Time
}

// publishOp generates the next version (untimed), then times Publish
// entry → every consumer's Next return, and verifies each install.
func (st *stack) publishOp(id int) sample {
	if st.sp.deltaEps > 0 {
		st.gen.deltaStep(st.sp.deltaEps)
	} else {
		st.gen.denseStep()
	}
	st.version++
	got := make(chan nextResult, len(st.cons))
	ot := opTimes{start: time.Now()}
	if id > 0 {
		st.tr.begin(id)
	}
	for i, c := range st.cons {
		go func(i int, c *remote.Consumer) {
			ckpt, err := c.Next(opTimeout)
			got <- nextResult{i, ckpt, err, time.Now()}
		}(i, c)
	}
	_, perr := st.prod.Publish(st.gen.snap, st.version, 0)
	ot.pubDone = time.Now()
	results := make([]nextResult, 0, len(st.cons))
	first := time.Time{}
	for range st.cons {
		r := <-got
		if first.IsZero() || r.at.Before(first) {
			first = r.at
		}
		if r.at.After(ot.ready) {
			ot.ready, ot.lastCons = r.at, r.idx
		}
		results = append(results, r)
	}
	var marks map[connKey]*mark
	if id > 0 {
		marks = st.tr.end()
	}
	s := sample{ready: ot.ready.Sub(ot.start), stall: ot.pubDone.Sub(ot.start), skew: ot.ready.Sub(first), err: perr, traced: id > 0}
	for _, r := range results {
		if s.err != nil {
			break
		}
		if r.err != nil {
			s.err = fmt.Errorf("consumer %d: %w", r.idx, r.err)
		} else if err := verifyInstall(st.gen.snap, st.version, r.ckpt, st.sp.deltaEps, st.gen.hot); err != nil {
			s.err = fmt.Errorf("consumer %d: %w", r.idx, err)
		}
	}
	if st.sp.deltaEps > 0 && s.err == nil {
		// The consumer advertises its chunk store after every install; the
		// producer must absorb advertisement v before publish v+1 or it
		// ships a full stream. Training publishes on a cadence that dwarfs
		// this turnaround; the closed loop has to wait it out, untimed.
		s.err = waitFor("consumer have-list", func() bool { return st.prod.Stats().HaveLists >= int64(st.version) })
		ot.haveListed = time.Now()
	}
	if s.err != nil {
		s.ready = opTimeout
	} else if id > 0 {
		s.spans = st.tr.finish(id, ot, marks, false)
	}
	return s
}

// joinOp times a fresh consumer from NewConsumer entry until Next has
// returned the newest stored version, verified bit for bit.
func (st *stack) joinOp(id int) sample {
	ot := opTimes{start: time.Now()}
	if id > 0 {
		st.tr.begin(id)
	}
	c, err := st.newConsumer(st.rel.ServeAddr(), 0, false)
	ot.connected = time.Now()
	var ckpt *vformat.Checkpoint
	if err == nil {
		ckpt, err = c.Next(opTimeout)
	}
	ot.ready = time.Now()
	var marks map[connKey]*mark
	if id > 0 {
		marks = st.tr.end()
	}
	if c != nil {
		addStats(&st.joined, c.Stats())
		c.Close()
	}
	if err == nil {
		err = verifyInstall(st.gen.snap, st.version, ckpt, 0, nil)
	}
	s := sample{ready: ot.ready.Sub(ot.start), err: err, traced: id > 0}
	if err != nil {
		s.ready = opTimeout
	} else if id > 0 {
		s.spans = st.tr.finish(id, ot, marks, true)
	}
	return s
}
