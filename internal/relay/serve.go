package relay

import (
	"errors"
	"strconv"
	"sync"

	"viper/internal/chunkstore"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// chunkFrame rebuilds one record frame for fan-out: the wire shape a
// producer would have sent, with the stream identity (model, version,
// relay metadata) copied from the version's header frame.
func chunkFrame(head transport.Frame, rec []byte) transport.Frame {
	f := transport.ChunkRecordFrame(head.Key, rec)
	if m := head.Meta["model"]; m != "" {
		f.Meta["model"] = m
	}
	if v := head.Meta["version"]; v != "" {
		f.Meta["version"] = v
	}
	return f
}

// reopen is the opening frame of f's stream in its other form — a header
// for the manifest that arrived, a manifest for the header that is cached
// — with f's stream identity: same key and tags, the new payload, role
// and record count.
func reopen(f transport.Frame, payload []byte, role string, records int) transport.Frame {
	out := transport.Frame{Key: f.Key, Payload: payload, Meta: make(map[string]string, len(f.Meta))}
	for k, v := range f.Meta {
		out.Meta[k] = v
	}
	out.Meta[transport.MetaChunkRole] = role
	out.Meta[transport.MetaChunkCount] = strconv.Itoa(records)
	return out
}

// acceptServe accepts successive consumer connections.
func (r *Relay) acceptServe() {
	defer r.wg.Done()
	for {
		link, err := r.serveLn.Accept()
		if err != nil {
			return
		}
		s := &session{r: r, link: link, done: make(chan struct{}), needs: make(chan transport.Frame, 4), sent: make(map[string]*version)}
		r.life.Lock()
		select {
		case <-r.closed:
			r.life.Unlock()
			link.Close()
			return
		default:
		}
		r.sessions[s] = struct{}{}
		openSessionsGauge.Set(int64(len(r.sessions)))
		r.life.Unlock()
		r.n.Sessions.Inc()
		r.wg.Add(2)
		go s.run()
		go s.watch()
	}
}

// session is one connected consumer: a writer goroutine fanning cached
// versions out (run) and a reader goroutine parsing the consumer's
// reconciliation frames and detecting disconnects (watch). Progress —
// and the advertised have-set — is per-session, so a slow consumer
// never stalls the others or the producer.
type session struct {
	r     *Relay
	link  *transport.TCPLink
	done  chan struct{}
	once  sync.Once
	needs chan transport.Frame

	mu   sync.Mutex
	have map[vformat.ChunkHash]bool

	// sent is the version last fanned out of each model — what the next
	// pick must be ahead of, and where a need-list for its stream key is
	// answered from. The writer goroutine (run) alone touches it.
	sent map[string]*version

	// readBufs are the read-through buffers of the fan-out in progress
	// (see readAhead): two, so the store fills one while the link drains
	// the other. Grown on first use and kept for the session.
	readBufs [2][]byte
}

// setHave replaces the session's advertised chunk set (the consumer
// sends its whole cache inventory each time, so replacement — not
// merge — keeps the set bounded by what the consumer actually holds).
func (s *session) setHave(hashes []vformat.ChunkHash) {
	set := make(map[vformat.ChunkHash]bool, len(hashes))
	for _, h := range hashes {
		set[h] = true
	}
	s.mu.Lock()
	s.have = set
	s.mu.Unlock()
}

// close tears the session down (idempotent; called by either goroutine
// and by Relay.Close).
func (s *session) close() {
	s.once.Do(func() {
		close(s.done)
		s.link.Close()
		s.r.life.Lock()
		delete(s.r.sessions, s)
		openSessionsGauge.Set(int64(len(s.r.sessions)))
		s.r.life.Unlock()
	})
}

// watch drains the consumer side of the link: have-lists update the
// session's advertised chunk set, need-lists are routed to the writer
// goroutine (which owns the link's send side), and a Recv error means
// the peer disconnected (or the relay is closing), which must cancel
// the writer promptly.
func (s *session) watch() {
	defer s.r.wg.Done()
	defer s.close()
	for {
		f, err := s.link.Recv()
		if err != nil {
			return
		}
		switch {
		case transport.IsHaveFrame(f):
			if _, _, hashes, err := transport.ParseHaveFrame(f); err == nil {
				s.setHave(hashes)
			}
		case transport.IsNeedFrame(f):
			// Bounded hand-off: an overflowing need queue drops the
			// request, and the consumer's collect tears on the next
			// version instead of assembling short.
			select {
			case s.needs <- f:
			default:
				s.r.n.StrayFrames.Inc()
			}
		default:
			s.r.n.StrayFrames.Inc()
		}
	}
}

// run is the session's writer loop: catch the consumer up on the newest
// complete version of every model (straight from the relay — no producer
// involvement), then follow new commits as they land.
func (s *session) run() {
	defer s.r.wg.Done()
	defer s.close()
	for {
		if !s.drainNeeds() {
			return
		}
		v, wake := s.r.cat.next(s.sent)
		if v == nil {
			select {
			case nf := <-s.needs:
				if !s.answerNeed(nf) {
					return
				}
			case <-wake:
			case <-s.done:
				return
			case <-s.r.closed:
				return
			}
			continue
		}
		s.sent[v.model] = v
		if !s.send(v) {
			return
		}
	}
}

// drainNeeds answers every queued need-list before the writer moves on
// to the next version, so a consumer blocked on a re-send is never left
// waiting behind a park. Returns false when the connection is gone.
func (s *session) drainNeeds() bool {
	for {
		select {
		case nf := <-s.needs:
			if !s.answerNeed(nf) {
				return false
			}
		default:
			return true
		}
	}
}

// answerNeed re-sends requested records from the version the session
// fanned out under the request's stream key, then from the store. When
// any requested chunk is in neither (the consumer asked about a version
// the session never served and the store no longer holds), the whole
// request is refused with an off-stream notice — the consumer's collect
// tears cleanly and falls back to a full fetch, never assembling a short
// checkpoint. Returns false when the connection is gone.
func (s *session) answerNeed(nf transport.Frame) bool {
	key, hashes, err := transport.ParseNeedFrame(nf)
	if err != nil {
		s.r.n.StrayFrames.Inc()
		return true
	}
	var served *version
	for _, v := range s.sent {
		if v.key == key {
			served = v
		}
	}
	recs, unresolved := s.r.resolve(served, hashes)
	if unresolved > 0 {
		return s.link.Send(rejectFrame(rejectReasonResend, "", "")) == nil
	}
	for _, rec := range recs {
		if s.link.Send(transport.ChunkRecordFrame(key, rec)) != nil {
			return false
		}
	}
	s.r.n.NeedResends.Inc()
	return true
}

// fanout is the plan of one version's fan-out to one consumer, fixed
// before the first frame leaves: the opening frame — the header, or a
// manifest when the consumer advertised a have-set overlapping the
// version — and the records to ship behind it, in order: recs when the
// version holds its records, else disk, the keys of records that live only
// in the store and are read through as the send loop reaches them.
type fanout struct {
	open  transport.Frame
	delta bool
	recs  [][]byte
	disk  []vformat.ChunkHash
}

// planFanout plans v's fan-out: the records whose keys the consumer's
// advertised have-set lacks, taken from v or, on a shell, from the store.
// It reports false when a record is in neither: the version is then
// refused whole rather than opened as a stream that cannot finish. No lock
// but the have-set's is taken: v is immutable, and the store's index is
// asked here, outside the catalogue lock.
func (s *session) planFanout(v *version) (fanout, bool) {
	s.mu.Lock()
	have := s.have
	s.mu.Unlock()
	var p fanout
	for i, h := range v.hashes {
		switch {
		case have[h]:
		case v.recs != nil:
			p.recs = append(p.recs, v.recs[i])
		case s.r.store == nil || !s.r.store.Contains(h):
			return fanout{}, false
		default:
			p.disk = append(p.disk, h)
		}
	}
	want := len(p.recs) + len(p.disk)
	p.open, p.delta = v.head, want < len(v.hashes)
	if p.delta {
		p.open = reopen(v.head, vformat.EncodeManifest(v.head.Payload, v.hashes), transport.ChunkRoleManifest, want)
	}
	return p, true
}

// send fans one catalogued version out to the consumer under its plan
// (planFanout). Records v holds go out from it; a shell's records are
// read through as the loop reaches them, one record ahead (readAhead), so
// nothing waits for a whole version to come off disk and nothing is added
// to memory. A store read that fails once frames have left cannot be
// taken back: the consumer gets the off-stream notice
// (rejectReasonResend), drops its build as a group and turns to the
// staging copy, never installing a short stream.
//
// The borrow is v itself: it is immutable and holds its record slices, so
// eviction, demotion or a same-vnum replacement concurrent with the
// fan-out changes nothing the loop reads — the consumer gets, bit for
// bit, the version that was picked. A newer complete version superseding
// v mid-stream still aborts the fan-out (latest-wins); the consumer's
// torn-stream handling copes with the cut, and the outer loop immediately
// starts on the newer version. Returns false when the connection is gone.
func (s *session) send(v *version) bool {
	picked := s.r.clock.Now()
	p, ok := s.planFanout(v)
	if !ok {
		// Abandon this fan-out; the session moves on to the next commit.
		if v.stored && s.r.store != nil {
			s.r.n.StoreErrors.Inc()
		}
		s.r.n.AbandonedFanouts.Inc()
		return true
	}
	var ra *readAhead
	if len(p.disk) > 0 {
		ra = s.startReadAhead(p.disk)
		defer ra.stop()
	}
	if s.link.Send(p.open) != nil {
		return false
	}
	if ra != nil {
		readFirstByteMS.Observe(s.r.clock.Now().Sub(picked).Milliseconds())
	}
	for i := 0; i < len(p.recs)+len(p.disk); i++ {
		if s.r.cat.newest(v.model).vnum > v.vnum {
			s.r.n.AbandonedFanouts.Inc()
			return true
		}
		select {
		case <-s.done:
			return false
		case <-s.r.closed:
			return false
		default:
		}
		var rec []byte
		if ra == nil {
			rec = p.recs[i]
		} else {
			var err error
			if rec, err = ra.next(); err != nil {
				s.r.n.StoreErrors.Inc()
				if errors.Is(err, chunkstore.ErrCorrupt) {
					s.r.n.CorruptChunks.Inc()
				}
				s.r.n.AbandonedFanouts.Inc() // last: observers wait on it
				return s.link.Send(rejectFrame(rejectReasonResend, v.model, strconv.FormatUint(v.vnum, 10))) == nil
			}
		}
		if s.link.Send(chunkFrame(v.head, rec)) != nil {
			return false
		}
	}
	if p.delta {
		s.r.n.DeltaFanouts.Inc()
	}
	s.r.n.ServedVersions.Inc() // last: observers wait on it
	return true
}

// readAhead reads a fan-out's on-disk records in the order the send loop
// wants them, one record ahead of it, alternating between the session's
// two buffers. The hand-off is unbuffered and the loop takes a record
// only after it has sent the previous one (TCPLink.Send has written the
// payload when it returns), so by the time a hand-off completes the other
// buffer is free to be overwritten. The reader stops at the first failed
// read, after handing the error over.
type readAhead struct {
	out   chan diskRecord
	quit  chan struct{}
	done  chan struct{}
	taken int
}

type diskRecord struct {
	rec []byte
	err error
}

// startReadAhead starts reading disk in order. The caller must stop the
// reader on every path.
func (s *session) startReadAhead(disk []vformat.ChunkHash) *readAhead {
	ra := &readAhead{out: make(chan diskRecord), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ra.done)
		for i, h := range disk {
			buf := &s.readBufs[i%len(s.readBufs)]
			rec, err := s.r.store.ReadChunk(h, *buf)
			if err == nil {
				*buf = rec // a buffer that had to grow stays grown
			}
			select {
			case ra.out <- diskRecord{rec, err}:
			case <-ra.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return ra
}

// next returns the next record; the slice is the reader's again once the
// following call returns. Having to wait for any record but the first
// means the store, not the link, is what the fan-out is waiting for.
func (ra *readAhead) next() ([]byte, error) {
	ra.taken++
	select {
	case d := <-ra.out:
		return d.rec, d.err
	default:
	}
	if ra.taken > 1 {
		readAheadWaits.Inc()
	}
	d := <-ra.out
	return d.rec, d.err
}

// stop ends the reader and waits for it: once it returns no read is in
// flight, so no segment is pinned and the buffers are idle.
func (ra *readAhead) stop() {
	close(ra.quit)
	<-ra.done
}
