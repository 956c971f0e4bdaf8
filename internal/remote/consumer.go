package remote

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"viper/internal/bufpool"
	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/metrics"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// defaultLinkWait bounds how long the consumer waits for a notified
// checkpoint to arrive on the direct link before backfilling it from
// the KV staging area.
const defaultLinkWait = 2 * time.Second

// ConsumerConfig configures a remote consumer.
type ConsumerConfig struct {
	// Model names the model to follow.
	Model string
	// MetaAddr is the kvstore server address.
	MetaAddr string
	// NotifyAddr is the pubsub server address.
	NotifyAddr string
	// ProducerAddr is the producer's direct-link address.
	ProducerAddr string
	// Serving, if non-nil, is kept restored to the latest checkpoint.
	Serving nn.Model
	// Retry bounds redial/retry attempts on the networked paths. The
	// zero value selects retry.Default over the wall clock.
	Retry retry.Policy
	// LinkWait bounds how long Next waits for a notified checkpoint on
	// the direct link before backfilling from the KV staging area, how
	// long a stream may stall between frames before its build is
	// abandoned, and how long a staging copy announced as still being
	// flushed is polled for (default 2s).
	LinkWait time.Duration
	// LinkDial, if set, replaces the direct-link dial (fault injection
	// hooks in here).
	LinkDial func(addr string) (net.Conn, error)
	// MetaDial, if set, replaces the metadata client dial.
	MetaDial func(addr string) (net.Conn, error)
	// DisableDeltaReconcile turns off chunk-level delta reconciliation.
	// By default the consumer knows the record hash of every position of
	// the newest version it holds (its span source), advertises them to
	// the sender behind every install (transport.HaveKey), and accepts
	// manifest delta streams that ship only the chunks that changed —
	// recovering, with a need-list, chunks its source no longer holds
	// where the manifest names them, and falling back to the staging path
	// rather than ever assembling a torn checkpoint. Disabling restores
	// the always-full streams.
	DisableDeltaReconcile bool
	// FrameBuffer is ignored: the hand-off between the link reader and
	// the builder is transport.ReadAhead frames deep.
	//
	// Deprecated: ignored.
	FrameBuffer int
	// BaseContext is the root of the consumer's lifecycle context: the
	// context-free Next runs under it, and Close cancels it, so a
	// blocked wait aborts instead of outliving the consumer. Nil
	// defaults to context.Background().
	BaseContext context.Context
}

// ConsumerStats counts consumer-side delivery activity: a view of the
// consumer's own counters, which move independently (DeltaLoads before the
// LinkLoads of the same install).
type ConsumerStats struct {
	// LinkLoads counts updates received over the direct link.
	LinkLoads int64 `metric:"consumer_link_loads"`
	// StagedLoads counts updates backfilled from the KV staging area.
	StagedLoads int64 `metric:"consumer_staged_loads"`
	// SkippedVersions counts notified updates that were unrecoverable
	// on both paths (superseded by a newer version instead).
	SkippedVersions int64 `metric:"consumer_skipped_versions"`
	// StaleNotifications counts redelivered/out-of-date notifications
	// that were ignored.
	StaleNotifications int64 `metric:"consumer_stale_notifications"`
	// DiscardedFrames counts link frames that never reached an install:
	// stray or stale frames, and the frames of builds that were torn or
	// superseded before their notification.
	DiscardedFrames int64 `metric:"consumer_discarded_frames"`
	// DeltaLoads counts link loads that arrived as manifest delta
	// streams reconciled against the span source (a subset of
	// LinkLoads).
	DeltaLoads int64 `metric:"consumer_delta_loads"`
	// PreparedInstalls counts delta loads that were assembled in the
	// prepared back buffer: nothing model-sized allocated and no span
	// copied between the manifest and the park (a subset of DeltaLoads).
	PreparedInstalls int64 `metric:"consumer_prepared_installs"`
	// PreparedDiscards counts back buffers that were let go unused or
	// torn: the build patching one did not park, the span source moved on
	// before a manifest came, or the consumer closed holding one.
	PreparedDiscards int64 `metric:"consumer_prepared_discards"`
}

// consumerCounters are one consumer's event counters, named field for
// field after ConsumerStats (metrics.Bind); each also feeds the registry.
type consumerCounters struct {
	LinkLoads, StagedLoads, SkippedVersions, StaleNotifications, DiscardedFrames, DeltaLoads metrics.Counter
	PreparedInstalls, PreparedDiscards                                                       metrics.Counter
}

// parkedBudget bounds, in bytes, the decoded weights of the complete builds
// kept for notifications Next has not processed yet (the newest build is
// always kept, whatever its size). It is what a consumer that stopped
// calling Next can pin; older builds are dropped first and their versions
// come from staging or are skipped as superseded. Beyond active and parked
// the consumer pins at most three more checkpoints — the span source, when
// the build it came from has since been dropped or replaced, the back buffer
// prepared from it, and the spare — and no chunk record.
const parkedBudget = 64 << 20

// build is one link stream assembled by the builder.
type build struct {
	key     string
	version uint64
	delta   bool  // arrived as a manifest delta stream
	inPlace bool  // a delta assembled in the prepared back buffer
	frames  int64 // link frames the stream took
	bytes   int64 // decoded weights, once complete
	ckpt    *vformat.Checkpoint
	// header is a full stream's header, kept — with reconciliation on — for
	// the filler, which hashes the installed weights under it into a span
	// source.
	header []byte
	// inherited counts a delta build's positions the span source covered
	// without a record.
	inherited int
}

// sourceFill is what one install leaves for the filler: the weights it
// installed, to be hashed into its span source, and the version to
// advertise once they are.
type sourceFill struct {
	version   uint64
	installed time.Time
	// header is the v2 stream header weights were decoded under, and
	// weights the install's arrays, which the filler only reads. Nil header:
	// nothing to hash and no offer — a delta build became the span source
	// when it parked.
	header  []byte
	weights nn.Snapshot
}

// Consumer receives checkpoints pushed by a remote producer.
type Consumer struct {
	model string
	kv    *kvstore.Client
	ps    *pubsub.Client
	link  *transport.ReconnectLink
	// pool is where the link's chunk-record payloads come from. The consumer
	// owns every payload the link delivers and hands each back at most once,
	// when nothing can read it any more: a record as soon as the assembler
	// has decoded it (or failed it), a frame the builder discards. No
	// payload is kept or given away, and whatever is simply let go (Close
	// with frames in flight) is collected.
	pool     *transport.RecvPool
	events   <-chan pubsub.Message
	serving  nn.Model
	linkWait time.Duration
	policy   retry.Policy
	clock    simclock.Clock
	n        consumerCounters
	// reconcile: delta reconciliation is on (ConsumerConfig).
	reconcile bool

	frames    chan transport.Frame // link reader → builder
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // reader + builder + filler + back-buffer clone
	// fills hands installs to the filler (at most one waits: a newer
	// install supersedes it).
	fills *latest[sourceFill]

	// lifeCtx is the lifecycle context minted from
	// ConsumerConfig.BaseContext; lifeCancel fires in Close.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu      sync.Mutex
	active  *vformat.Checkpoint
	loads   int64
	applied uint64
	// Builder state. linkVersion is the newest version the link has
	// reached (or an install has overtaken): the link only moves forward,
	// so a version at or below it that is neither being built nor parked
	// will not arrive there any more. building is the version under
	// assembly (0 = none). parked holds complete, verified builds awaiting
	// their notification, oldest first, and parkedBytes their summed
	// size. changed is closed and replaced on every change to the first
	// three.
	linkVersion uint64
	building    uint64
	parked      []*build
	parkedBytes int64
	changed     chan struct{}
	// source is the span source the builder hands the next manifest
	// assembler: the newest complete build, parked or installed, whose
	// per-position hashes are known — a delta build's as soon as it is
	// parked (the manifest's), a full-stream or staged install's once the
	// filler has hashed its weights. Its hashes are the have-list. It shares
	// the weights of a checkpoint Next hands out, hence the read-only
	// contract there.
	source        *vformat.SpanSource
	sourceVersion uint64
	// back is the builder's back buffer: a private clone of source's
	// weights, started the moment a delta build became the source, that
	// the next manifest is assembled into. Non-nil, it is always source's
	// clone, being made or ready (a source that moves on drops it); the
	// builder takes it out before it writes a byte, so the copy is
	// reachable from nowhere else until the build that patched it parks.
	back *backSlot
	// clones are the back-buffer clones started and perhaps still copying:
	// the snapshots they read from cannot become the spare until they are
	// done.
	clones []*backSlot
	// filling is the install the filler is hashing, which cannot become the
	// spare while it reads it (nil: none).
	filling nn.Snapshot
	// spare is the double buffer's other half: the arrays of a checkpoint
	// nothing else can reach any more (recycleLocked), which the next
	// model-sized target the builder needs — a full stream's assembly or a
	// back-buffer clone — is written into instead of a fresh allocation.
	spare nn.Snapshot
}

// backSlot is one clone of the span source: buf is written once, before
// ready is closed, and read only after it. from is the source's weights,
// which the clone reads until ready is closed; target is the spare the
// clone was written into (nil: it allocated its own).
type backSlot struct {
	ready  chan struct{}
	buf    *vformat.BackBuffer
	from   nn.Snapshot
	target nn.Snapshot
}

// NewConsumer connects to all services and subscribes to the model's
// update channel.
func NewConsumer(cfg ConsumerConfig) (*Consumer, error) {
	if cfg.Model == "" {
		return nil, errors.New("remote: empty model name")
	}
	pol := policyOrDefault(cfg.Retry)
	var o opened
	kv, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol, DialFunc: cfg.MetaDial})
	if err := o.step("metadata", kv, err); err != nil {
		return nil, err
	}
	ps, err := pubsub.DialClient(cfg.NotifyAddr)
	if err := o.step("notify", ps, err); err != nil {
		return nil, err
	}
	events, err := ps.Subscribe(core.UpdateChannel(cfg.Model))
	if err := o.step("subscribe", nil, err); err != nil {
		return nil, err
	}
	pool := transport.NewRecvPool()
	link := dialedLink(cfg.ProducerAddr, cfg.LinkDial, pol, pool)
	if err := o.step("link", link, link.Connect()); err != nil {
		return nil, err
	}
	linkWait := cfg.LinkWait
	if linkWait <= 0 {
		linkWait = defaultLinkWait
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	lifeCtx, lifeCancel := context.WithCancel(cfg.BaseContext)
	c := &Consumer{
		model: cfg.Model, kv: kv, ps: ps, link: link, pool: pool,
		events: events, serving: cfg.Serving,
		linkWait: linkWait, policy: pol, clock: pol.ClockOrWall(), reconcile: !cfg.DisableDeltaReconcile,
		frames:  make(chan transport.Frame, transport.ReadAhead),
		closed:  make(chan struct{}),
		changed: make(chan struct{}),
		lifeCtx: lifeCtx, lifeCancel: lifeCancel,
	}
	c.fills = newLatest[sourceFill](c.closed)
	metrics.Bind[ConsumerStats](registry, &c.n)
	if c.reconcile {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.filler()
		}()
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.pump()
	}()
	go func() {
		defer c.wg.Done()
		c.build()
	}()
	return c, nil
}

// pump moves frames from the (reconnecting) link to the builder until
// the consumer closes (recvLoop); deliveries continue through the staging
// fallback while the link is down. The hand-off is transport.ReadAhead
// frames deep and may block: the builder drains it without ever waiting
// for Next, so a full channel is back-pressure on the sender, and the Recv
// loop — which is also what drives link reconnection — is never parked
// for long.
func (c *Consumer) pump() {
	recvLoop(c.link, c.policy, c.clock, c.closed, func(f transport.Frame) bool {
		select {
		case c.frames <- f:
			return true
		case <-c.closed:
			return false
		}
	})
}

// build is the builder: it assembles every stream the link carries as
// its frames land — per-record CRC check and decode, need-list
// backchannel — and parks each complete, verified build for Next, which
// installs it only once the matching notification arrives. It never
// waits for Next, and it hashes nothing but the records a delta stream
// ships (the manifest assembler needs those hashes to place them).
func (c *Consumer) build() {
	var next *transport.Frame // the frame that interrupted the last stream
	for {
		var f transport.Frame
		if next != nil {
			f, next = *next, nil
		} else {
			select {
			case f = <-c.frames:
			case <-c.closed:
				return
			}
		}
		opens := transport.IsChunkHeader(f) || transport.IsManifestHeader(f)
		v := frameVersion(&f)
		if !c.advance(v, opens) {
			c.n.DiscardedFrames.Inc()
			c.pool.Release(f.Payload) // typically the tail of an abandoned stream
			continue
		}
		next = c.assemble(f, v)
	}
}

// advance moves the link position to version v and reports whether the
// builder should assemble the stream the frame opens. A frame at or
// below the position is stale (superseded, redelivered after a
// reconnect, or the tail of an abandoned build). A newer frame that
// opens no stream still moves the position: the link has reached v
// without a usable stream for it, so v can only come from staging.
func (c *Consumer) advance(v uint64, opens bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v <= c.linkVersion {
		return false
	}
	c.linkVersion = v
	if opens {
		c.building = v
	}
	c.signalLocked()
	return opens
}

// signalLocked wakes every Next waiting on the builder; c.mu must be
// held.
func (c *Consumer) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// drop accounts a build that will never be installed and offers w, the
// arrays it was decoded into, as the spare: a build that is dropped was
// never handed out. c.mu must be held.
func (c *Consumer) drop(b *build, w nn.Snapshot) {
	c.n.DiscardedFrames.Add(b.frames)
	abandonedBuilds.Inc()
	c.recycleLocked(w)
}

// poisonWeight is bufpool.Poison in every byte of a float64.
var poisonWeight = math.Float64frombits(0x0101010101010101 * bufpool.Poison)

// recycleLocked makes w the spare if the slot is empty and nothing but the
// caller can reach w's arrays — not active, not the span source, not
// parked, not read by a clone still copying — and otherwise lets it go.
// Every caller holds w because it has just been superseded by an install,
// dropped unclaimed or failed: nothing can hand it out again. In a binary
// that armed the buffer pools' check the arrays are poisoned on the spot,
// so a read past the contract fails bit-identity instead of passing by
// luck. c.mu must be held.
func (c *Consumer) recycleLocked(w nn.Snapshot) {
	if c.spare != nil || w.NumBytes() == 0 || c.reachableLocked(w) {
		return
	}
	if bufpool.Armed() {
		for _, nt := range w {
			for i := range nt.Data {
				nt.Data[i] = poisonWeight
			}
		}
	}
	c.spare = w
}

// reachableLocked reports whether the consumer itself can still read w's
// arrays; c.mu must be held.
func (c *Consumer) reachableLocked(w nn.Snapshot) bool {
	if c.active != nil && sameArrays(w, c.active.Weights) ||
		c.source != nil && sameArrays(w, c.source.Weights()) ||
		c.filling != nil && sameArrays(w, c.filling) {
		return true
	}
	for _, b := range c.parked {
		if sameArrays(w, b.ckpt.Weights) {
			return true
		}
	}
	for _, slot := range c.clones {
		if !cloned(slot) && sameArrays(w, slot.from) {
			return true
		}
	}
	return false
}

// sameArrays reports whether a and b are views of the same arrays: the
// identity of a checkpoint's weights, whichever Snapshot value holds them.
func sameArrays(a, b nn.Snapshot) bool {
	for i := range a {
		if len(a[i].Data) > 0 {
			return i < len(b) && len(b[i].Data) > 0 && &a[i].Data[0] == &b[i].Data[0]
		}
	}
	return false
}

// takeSpareLocked empties the spare slot and returns what it held if l
// fits it: the target of a build or a clone, whose alone it is from now on.
// A spare of another shape is let go; nil means allocate. c.mu must be
// held.
func (c *Consumer) takeSpareLocked(l *vformat.ChunkLayout) nn.Snapshot {
	spare := c.spare
	c.spare = nil
	if !l.Fits(spare) {
		return nil
	}
	recycledSnapshots.Inc()
	return spare
}

// spareFor takes the spare for the full stream header opens, if it fits.
func (c *Consumer) spareFor(header []byte) nn.Snapshot {
	layout, _, _, err := vformat.ParseChunkHeader(header)
	if err != nil {
		return nil // the collector reports it
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.takeSpareLocked(layout)
}

// popParkedLocked removes and returns the oldest parked build, leaving
// no reference to it behind in the slice; c.mu must be held.
func (c *Consumer) popParkedLocked() *build {
	b := c.parked[0]
	n := copy(c.parked, c.parked[1:])
	c.parked[n] = nil
	c.parked = c.parked[:n]
	c.parkedBytes -= b.bytes
	return b
}

// assemble builds the stream opened by header (version v) from the
// frames that follow it and parks the result. The build is dropped as a
// group — never parked partially — when a foreign frame (typically a
// newer stream's header) interrupts it, when a record fails its CRC,
// when the link delivers nothing for a whole LinkWait period, or when
// the assembled checkpoint is not the model and version the frames
// claimed. The interrupting
// frame, if any, is returned for the builder to handle next.
func (c *Consumer) assemble(header transport.Frame, v uint64) (next *transport.Frame) {
	b := &build{key: header.Key, version: v, frames: 1, delta: transport.IsManifestHeader(header)}
	// One timer per LinkWait period, not per frame: when it fires the
	// stream is abandoned only if no frame arrived since it was armed.
	stall, progressed := c.clock.After(c.linkWait), false
	if c.reconcile && !b.delta {
		b.header = header.Payload
	}
	// handed is the payload of the frame the collector was given last. It
	// asks for the next frame only when it is done with that one — decoded
	// by the assembler (which keeps no reference to a record), or failed —
	// and that is when the payload is settled: handed straight back to the
	// pool. A frame the collector returns as foreign is not this stream's and
	// is never settled here.
	var handed []byte
	settle := func() {
		if handed != nil {
			c.pool.Release(handed)
			handed = nil
		}
	}
	// target is what this build decodes into when the consumer chose it: the
	// spare, or the clone in the back-buffer slot it took (torn unless the
	// build parks in place).
	var target nn.Snapshot
	var slot *backSlot
	recv := func() (transport.Frame, error) {
		settle()
		for {
			select {
			case f := <-c.frames:
				b.frames++
				progressed = true
				handed = f.Payload
				return f, nil
			case <-stall:
				if !progressed {
					return transport.Frame{}, ErrTimeout
				}
				stall, progressed = c.clock.After(c.linkWait), false
			case <-c.closed:
				return transport.Frame{}, errors.New("remote: consumer closed")
			}
		}
	}
	var err error
	var source *vformat.SpanSource // what this build offers the next one
	switch {
	case !b.delta:
		target = c.spareFor(header.Payload)
		b.ckpt, next, err = transport.CollectChunked(c.lifeCtx, header, target, recv)
	case !c.reconcile:
		// Reconciliation disabled: nothing advertised, so a manifest
		// stream is unexpected; let the staging path carry the version.
		err = errors.New("remote: manifest stream with reconciliation disabled")
	default:
		// Positions the span source holds decoded under the same hash are
		// already in place in the back buffer (or, without one, copied from
		// the source), the missing records arrive from the link, and a chunk
		// the source no longer holds where the manifest names it (it moved
		// on since it was advertised) is need-listed back to the sender.
		var from *vformat.SpanSource
		var back *vformat.BackBuffer
		var asm *vformat.ManifestAssembler
		if from, slot, err = c.takeSource(); err == nil {
			if slot != nil {
				back, target = slot.buf, slot.target
			}
			asm, err = vformat.NewManifestAssembler(header.Payload, from, back)
		}
		if err == nil {
			b.inPlace = asm.InPlace()
			b.ckpt, next, err = transport.CollectChunkedDeltaInto(c.lifeCtx, header, asm, recv, c.link.Send)
		}
		if err == nil {
			source, b.inherited = asm.Source(), asm.Inherited()
		}
	}
	if next != nil {
		b.frames-- // the interrupting frame is accounted, and owned, on its own
	} else {
		settle()
	}
	if err == nil && (b.ckpt.ModelName != c.model || b.ckpt.Version != v) {
		err = fmt.Errorf("remote: stream %q assembled %s/v%d", b.key, b.ckpt.ModelName, b.ckpt.Version)
	}
	if slot != nil && (err != nil || !b.inPlace) {
		c.n.PreparedDiscards.Inc()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.building = 0
	if err != nil {
		c.drop(b, target)
	} else {
		b.bytes = b.ckpt.Weights.NumBytes()
		c.parked = append(c.parked, b)
		c.parkedBytes += b.bytes
		if c.offerSourceLocked(b.version, source) {
			c.prepareLocked(source) // only a manifest's build offers one here
		}
		for len(c.parked) > 1 && c.parkedBytes > parkedBudget {
			old := c.popParkedLocked()
			c.drop(old, old.ckpt.Weights)
		}
	}
	c.signalLocked()
	return next
}

// offerSourceLocked makes src the span source if it is of a newer version
// than the current one (nil offers nothing) and reports whether it did. A
// back buffer cloned from the old source is of no use against the new one
// and is let go. c.mu must be held.
func (c *Consumer) offerSourceLocked(version uint64, src *vformat.SpanSource) bool {
	if src == nil || version <= c.sourceVersion {
		return false
	}
	c.source, c.sourceVersion = src, version
	c.dropBackLocked()
	return true
}

// dropBackLocked lets the back buffer go unused, if there is one (a clone
// still being made finishes into garbage); c.mu must be held.
func (c *Consumer) dropBackLocked() {
	if c.back != nil {
		c.back = nil
		c.n.PreparedDiscards.Inc()
	}
}

// prepareLocked starts cloning src, which has just become the span source,
// into the back buffer: one copy into the spare (or, with none, a
// model-sized allocation), made between two versions instead of between a
// manifest and its park. It only reads src, like everyone else. c.mu must
// be held.
func (c *Consumer) prepareLocked(src *vformat.SpanSource) {
	slot := &backSlot{ready: make(chan struct{}), from: src.Weights(), target: c.takeSpareLocked(src.Layout())}
	c.back = slot
	c.clones = append(slices.DeleteFunc(c.clones, cloned), slot)
	c.wg.Add(1) // from the builder, which Close is still waiting for
	go func() {
		defer c.wg.Done()
		slot.buf = src.Clone(slot.target)
		close(slot.ready)
	}()
}

// cloned reports whether slot's clone is made.
func cloned(slot *backSlot) bool {
	select {
	case <-slot.ready:
		return true
	default:
		return false
	}
}

// takeSource returns the span source for the manifest the builder is about
// to assemble and, when one was prepared, the slot holding its back buffer,
// now the builder's alone and ready. A clone still being made is waited for
// rather than allocated a second time: the wait is no longer than the
// allocate-and-copy it replaces, and Close ends it.
func (c *Consumer) takeSource() (*vformat.SpanSource, *backSlot, error) {
	c.mu.Lock()
	from, slot := c.source, c.back
	c.back = nil
	c.mu.Unlock()
	if slot == nil {
		return from, nil, nil
	}
	select {
	case <-slot.ready:
		return from, slot, nil
	case <-c.closed:
		c.n.PreparedDiscards.Inc()
		return nil, nil, errors.New("remote: consumer closed")
	}
}

// ErrTimeout is returned by Next when no update arrives in time.
var ErrTimeout = errors.New("remote: timed out waiting for a model update")

// frameVersion extracts the version a link frame carries (0 if absent).
func frameVersion(f *transport.Frame) uint64 {
	v, _ := strconv.ParseUint(f.Meta["version"], 10, 64)
	return v
}

// Next blocks until the next pushed model update, obtains the
// checkpoint (the builder's parked build of the direct-link stream
// first, KV staging backfill when the link lost it), installs it, and
// returns it. Nothing is installed before its notification: a stream the
// producer never announced (a cancelled publish) stays parked until a
// newer announcement drops it. Notifications for versions at or below
// the installed one (e.g. redelivered after a broker reconnect) are
// ignored; notified versions that are unrecoverable on both paths are
// skipped, since a newer update supersedes them.
//
// The returned checkpoint is valid until the next Next returns, and
// read-only: Active returns the same object, and with reconciliation on it
// is the span source the next version's unchanged chunks come from —
// copied out of its weights, or cloned whole into the builder's back
// buffer. Once a later Next has superseded it, its arrays are the
// consumer's again, and a later version is decoded into them: the paper's
// double buffer, with no model-sized allocation per version. Copy what you
// keep longer or need to change (nn.RestoreSnapshot copies into the
// serving model).
func (c *Consumer) Next(timeout time.Duration) (*vformat.Checkpoint, error) {
	return c.NextContext(c.lifeCtx, timeout)
}

// NextContext is Next bounded by a context: cancellation aborts the
// wait for a notification or for the builder, and the staging backfill.
func (c *Consumer) NextContext(ctx context.Context, timeout time.Duration) (*vformat.Checkpoint, error) {
	deadline := c.clock.After(timeout)
	for {
		select {
		case msg, ok := <-c.events:
			if !ok {
				return nil, errors.New("remote: subscription closed")
			}
			meta, err := core.DecodeMeta(msg.Payload)
			if err != nil {
				return nil, err
			}
			c.mu.Lock()
			applied := c.applied
			c.mu.Unlock()
			if meta.Version <= applied {
				c.n.StaleNotifications.Inc()
				continue
			}
			ckpt, fill, err := c.fetch(ctx, meta)
			if err != nil {
				return nil, err
			}
			if ckpt == nil {
				// Unrecoverable on both paths; wait for a newer one.
				c.n.SkippedVersions.Inc()
				continue
			}
			if err := c.install(ckpt, fill); err != nil {
				return nil, err
			}
			return ckpt, nil
		case <-deadline:
			return nil, ErrTimeout
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fetch obtains the checkpoint for meta from the builder, falling back
// to the KV staging area, along with what it leaves for the filler. A nil
// checkpoint and nil error mean the version is lost on both paths
// (superseded updates may legitimately be).
func (c *Consumer) fetch(ctx context.Context, meta *core.ModelMeta) (*vformat.Checkpoint, *sourceFill, error) {
	var timer <-chan time.Time // armed on the first wait: a prebuilt install needs none
	for first := true; ; first = false {
		b, lost, changed := c.claim(meta)
		if b != nil {
			if first {
				prebuiltInstalls.Inc()
			}
			if b.delta {
				c.n.DeltaLoads.Inc()
			}
			if b.inPlace {
				c.n.PreparedInstalls.Inc()
			}
			c.n.LinkLoads.Inc() // last: observers wait on it
			inheritedChunks.Add(int64(b.inherited))
			return b.ckpt, &sourceFill{header: b.header, weights: b.ckpt.Weights}, nil
		}
		if lost {
			return c.fetchStaged(ctx, meta)
		}
		if timer == nil {
			timer = c.clock.After(c.linkWait)
		}
		select {
		case <-changed:
		case <-timer:
			return c.fetchStaged(ctx, meta)
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-c.closed:
			return nil, nil, errors.New("remote: consumer closed")
		}
	}
}

// claim matches the notification meta against the builder's state. It
// returns the parked build for exactly that version and stream key, or
// lost when the link will not deliver it (the stream was torn, never
// opened, or the link is already past the version), or neither — the
// build is still in progress or its stream has not begun — with the
// channel that signals the builder's next change. Parked builds older
// than the announced version were superseded before their own
// notification was processed and are dropped.
func (c *Consumer) claim(meta *core.ModelMeta) (b *build, lost bool, changed <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.parked) > 0 && c.parked[0].version < meta.Version {
		old := c.popParkedLocked()
		c.drop(old, old.ckpt.Weights)
	}
	if len(c.parked) > 0 && c.parked[0].version == meta.Version {
		if b = c.popParkedLocked(); b.key == meta.Path {
			return b, false, nil
		}
		c.drop(b, b.ckpt.Weights)
		return nil, true, nil
	}
	if c.building == meta.Version {
		return nil, false, c.changed
	}
	return nil, c.linkVersion >= meta.Version, c.changed
}

// fetchStaged backfills a checkpoint from the KV staging area, where
// the producer leaves the complete chunked blob. A copy the notification
// announced as still being flushed (StagePending) is polled for on the
// retry schedule for up to LinkWait — unless a newer notification is
// already waiting, which supersedes this version anyway; without the
// flag a missing copy is final.
func (c *Consumer) fetchStaged(ctx context.Context, meta *core.ModelMeta) (*vformat.Checkpoint, *sourceFill, error) {
	key := core.StagingKey(c.model, meta.Version)
	raw, err := c.kv.GetBytes(key)
	if meta.StagePending {
		budget := c.clock.After(c.linkWait)
		backoff := initialBackoff(c.policy)
	poll:
		for errors.Is(err, kvstore.ErrNotFound) && len(c.events) == 0 {
			select {
			case <-c.clock.After(backoff):
			case <-budget:
				break poll
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-c.closed:
				return nil, nil, errors.New("remote: consumer closed")
			}
			backoff = nextBackoff(c.policy, backoff)
			raw, err = c.kv.GetBytes(key)
		}
	}
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, nil, nil // lost on both paths
	}
	if err != nil {
		return nil, nil, fmt.Errorf("remote: staged fetch: %w", err)
	}
	// Producers stage their complete chunk stream and nothing else; the
	// other formats DecodeAuto reads are the simulator's and the store's.
	if !vformat.IsChunked(raw) {
		return nil, nil, fmt.Errorf("remote: staged blob %s is not a chunk stream", key)
	}
	ckpt, err := vformat.DecodeAuto(ctx, raw, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: staged checkpoint: %w", err)
	}
	if ckpt.ModelName != c.model || ckpt.Version != meta.Version {
		return nil, nil, fmt.Errorf("remote: staged checkpoint is %s/v%d, want %s/v%d",
			ckpt.ModelName, ckpt.Version, c.model, meta.Version)
	}
	// The staged weights are hashed into the span source behind the install,
	// like a link stream's: the fill keeps the stream header, not the blob.
	fill := &sourceFill{weights: ckpt.Weights}
	if _, _, n, err := vformat.ParseChunkHeader(raw); err == nil {
		fill.header = slices.Clone(raw[:n])
	}
	c.n.StagedLoads.Inc()
	return ckpt, fill, nil
}

// install makes ckpt the active checkpoint and restores the serving
// model; with reconciliation on it then hands fill to the filler, which
// hashes the version's weights into its span source and advertises the
// source back to the sender behind the install, so the next version can
// travel as a delta.
func (c *Consumer) install(ckpt *vformat.Checkpoint, fill *sourceFill) error {
	c.mu.Lock()
	prev := c.active
	c.active = ckpt
	c.loads++
	c.applied = ckpt.Version
	if c.linkVersion < ckpt.Version {
		// Installed from staging ahead of the link: a stream of this
		// version arriving late is stale.
		c.linkVersion = ckpt.Version
	}
	// The checkpoint Next returned before is superseded: the caller's hold
	// on it ends here. A fill of its weights may still read them, and offer
	// them as the span source, until the source is at least as new.
	if prev != nil && (!c.reconcile || c.sourceVersion >= prev.Version) {
		c.recycleLocked(prev.Weights)
	}
	c.mu.Unlock()
	consumerInstalls.Inc()
	if c.serving != nil {
		if err := nn.RestoreSnapshot(c.serving, ckpt.Weights); err != nil {
			return fmt.Errorf("remote: restore: %w", err)
		}
	}
	if c.reconcile {
		fill.version, fill.installed = ckpt.Version, c.clock.Now()
		c.queueFill(fill)
	}
	return nil
}

// queueFill hands f to the filler, latest-wins: a fill still waiting is
// superseded — its weights are never hashed, and the newer version's
// advertisement names whatever the source is by then.
func (c *Consumer) queueFill(f *sourceFill) {
	if old, _ := c.fills.put(f); old != nil {
		fillSuperseded.Inc()
	}
}

// filler is the background filler: one fill at a time, never under c.mu.
// Close abandons the fill in hand between two chunks and the one waiting
// altogether.
func (c *Consumer) filler() {
	c.fills.run(c.fill)
}

// fill hashes f's installed weights, by position, into a span source for
// the install (vformat.ChunkLayout.HashDecoded: the hash of the record each
// chunk was decoded from), then advertises the span source's hashes: the
// have-list is exactly what the next manifest can inherit. The consumer
// computes every hash itself, from weights its assembler decoded out of
// verified records. A fill that ran to its end offers the install as the
// span source; a delta install has nothing to hash, its build became the
// source when it parked. The advertisement is best-effort: a late or lost
// have-list only costs one full stream. It stops short when the consumer
// closes under it.
func (c *Consumer) fill(f *sourceFill) {
	start := c.clock.Now()
	// An install the source has overtaken has nothing to offer, and may
	// already be the spare; any other is held out of the spare until the
	// fill is done with it.
	c.mu.Lock()
	if f.version <= c.sourceVersion {
		f.header = nil
	}
	if f.header != nil {
		c.filling = f.weights
	}
	c.mu.Unlock()
	var hashed *vformat.SpanSource
	if f.header != nil {
		layout, _, _, err := vformat.ParseChunkHeader(f.header)
		if err == nil {
			hashes := layout.HashDecoded(f.weights, c.closed)
			if hashes != nil {
				hashed, _ = vformat.NewSpanSource(f.header, hashes, f.weights)
			}
		}
	}
	cacheFillMS.Observe(c.clock.Now().Sub(start).Milliseconds())
	c.mu.Lock()
	c.filling = nil
	if hashed != nil {
		c.offerSourceLocked(f.version, hashed)
	}
	c.mu.Unlock()
	select {
	case <-c.closed:
		return
	default:
	}
	// The advertisement invites the next delta, so it goes out behind the
	// clone that delta is patched into: a sender pacing itself on
	// have-lists never has its encode share the cores with the copy.
	c.mu.Lock()
	slot := c.back
	c.mu.Unlock()
	if slot != nil {
		select {
		case <-slot.ready:
		case <-c.closed:
			return
		}
	}
	c.mu.Lock()
	src := c.source
	c.mu.Unlock()
	if src != nil {
		if c.link.Send(transport.NewHaveFrame(c.model, f.version, src.Hashes())) == nil {
			haveListLagMS.Observe(c.clock.Now().Sub(f.installed).Milliseconds())
		}
	}
}

// Active returns the currently installed checkpoint (nil before the
// first update): the object Next returned last, under the same contract —
// read-only, and valid until the next Next returns.
func (c *Consumer) Active() *vformat.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Loads returns the number of applied updates.
func (c *Consumer) Loads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads
}

// Stats returns the consumer's delivery counters.
func (c *Consumer) Stats() ConsumerStats { return metrics.View[ConsumerStats](&c.n) }

// LatestMeta fetches the newest metadata from the KV store (pull path).
func (c *Consumer) LatestMeta() (*core.ModelMeta, error) {
	raw, err := c.kv.Get(core.MetaKey(c.model))
	if err != nil {
		return nil, err
	}
	return core.DecodeMeta(raw)
}

// Close cancels the lifecycle context, tears down all connections and
// waits for the link reader, the builder and the filler to exit. It
// is idempotent and safe to call concurrently: only the first call closes
// the shutdown channel.
func (c *Consumer) Close() {
	c.lifeCancel()
	c.closeOnce.Do(func() { close(c.closed) })
	c.link.Close()
	c.wg.Wait()
	c.mu.Lock()
	c.dropBackLocked()
	c.spare = nil
	c.mu.Unlock()
	c.pool.Drop()
	c.ps.Close()
	c.kv.Close()
}
