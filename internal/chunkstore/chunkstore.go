// Package chunkstore persists keyed chunk records in append-only segment
// files with a manifest log mapping model/version to an ordered key
// list, giving the in-memory distribution stack a crash-consistent disk
// tier: a relay restart rehydrates its whole inventory instead of waking
// with an empty cache, and retained historical versions stay loadable
// for time-travel.
//
// A key names one record's bytes: the writer chooses it — the record's
// content hash (vformat.HashChunkRecord) wherever records are to dedup,
// as PutBlob's are, or any key unique to those bytes — and the store
// keeps it beside the record, so Open indexes without hashing. Equal
// keys dedup. Chunk bodies are stored verbatim in v2 wire form (on-disk
// layout == on-wire layout), so ingest and serve are io.Copy-shaped with
// no re-encode. Durability uses two fsync barriers per commit: dirty
// segments first, then the commit record in the manifest log — a
// version is visible after reopen iff its commit record and every
// chunk it references survived. Torn tails in either file fail their
// entry CRC and are truncated on Open; commit records referencing
// missing chunks are dropped. Garbage collection is refcount-driven:
// retiring a version (explicitly or via the retention policy) appends
// a tombstone, fully-dead segments are deleted, mostly-dead segments
// are compacted by copying live entries forward — a crash at any point
// leaves either the old copy, a harmless duplicate, or both.
//
// Writes go through a Writer handle (Begin → Append… → Commit or
// Abort): every entry a handle appended or deduplicated against is
// pinned against reclaim until the handle finishes, so any number of
// handles — and Put*/Retire/GC calls — may interleave from any number
// of goroutines. One handle belongs to one goroutine. Readers may be
// concurrent with each other and with every writer.
package chunkstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"viper/internal/faults"
	"viper/internal/metrics"
	"viper/internal/simclock"
	"viper/internal/vformat"
)

// DefaultSegmentBytes is the segment rotation threshold when Options
// does not choose one.
const DefaultSegmentBytes = 4 << 20

var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("chunkstore: store closed")
	// ErrFailed is returned after a write failed mid-entry (real I/O
	// error or injected fault): the in-memory state may be ahead of the
	// disk, so the store refuses further work until reopened.
	ErrFailed = errors.New("chunkstore: store failed, reopen to recover")
	// ErrNotFound is returned when a model/version is not retained.
	ErrNotFound = errors.New("chunkstore: version not found")
	// ErrCorrupt is returned when a chunk read back from disk fails its
	// record checksum; the corrupt bytes are never served.
	ErrCorrupt = errors.New("chunkstore: corrupt chunk on disk")
	// ErrMissingChunk is returned when a commit references, or a read
	// asks for, a hash the store does not hold.
	ErrMissingChunk = errors.New("chunkstore: unknown chunk")
	// ErrWriterFinished is returned by Append and Commit on a Writer that
	// already committed or aborted.
	ErrWriterFinished = errors.New("chunkstore: write handle already finished")
	// ErrNotChunked is returned by PutBlob for a blob that is neither a
	// chunked (v2) nor a manifest-bearing checkpoint: every stored body is
	// a self-verifying chunk record.
	ErrNotChunked = errors.New("chunkstore: blob is neither chunked nor manifest-bearing")
)

// Retention bounds how much history a store keeps per model. Zero
// values mean unbounded. The newest version of each model is always
// kept regardless of policy.
type Retention struct {
	// MaxVersions keeps at most this many versions per model.
	MaxVersions int
	// MaxBytes keeps the newest versions whose payload bytes sum to at
	// most this (per model).
	MaxBytes int64
	// MaxAge retires versions whose commit time is older than this.
	MaxAge time.Duration
}

// Options configures Open.
type Options struct {
	// SegmentBytes is the rotation threshold (default
	// DefaultSegmentBytes). An oversize single entry still lands in a
	// fresh segment whole.
	SegmentBytes int64
	// Retention is enforced after every commit and on GC.
	Retention Retention
	// Clock stamps commits and times recovery (nil = wall clock).
	Clock simclock.Clock
	// Injector, when set, is consulted before every durable write with
	// ops "chunkstore/append", "chunkstore/commit", and
	// "chunkstore/gc". An injected failure simulates the process dying
	// mid-write: a torn prefix of the entry lands on disk and the store
	// fails (ErrFailed) until reopened. ReadChunk and LoadVersion consult
	// it with "chunkstore/read" between pinning a record's segment and
	// reading the record: an injected failure is a read error (the store
	// stays usable), an injected delay holds the read — and its pins — in
	// flight.
	Injector *faults.Injector
}

// VersionMeta describes one retained version.
type VersionMeta struct {
	Model   string
	Version uint64
	// Key is the transport frame key the version was published under,
	// preserved so a relay can rehydrate serving state verbatim.
	Key string
	// Header is the v2 stream header.
	Header []byte
	// Hashes is the ordered list of the version's chunk keys (content
	// hashes where the writer keyed by content).
	Hashes []vformat.ChunkHash
	// Bytes is the reassembled payload size.
	Bytes int64
	// SavedAt is the commit time.
	SavedAt time.Time
}

// Stats is a point-in-time snapshot of store state — the untagged
// fields, read under the store's lock — and a view of its lifetime
// counters, which also feed the registry counters their tags name.
type Stats struct {
	Segments        int
	LiveBytes       int64
	DeadBytes       int64
	Versions        int
	Chunks          int
	Committed       int64 `metric:"committed_versions"`
	Retired         int64 `metric:"retired_versions"`
	ReclaimedBytes  int64 `metric:"gc_reclaimed_bytes"`
	FallthroughHits int64 `metric:"fallthrough_hits"`
	CorruptChunks   int64 `metric:"corrupt_chunks"`
	TruncatedTails  int64 `metric:"truncated_tails"`
	DroppedVersions int64 `metric:"dropped_versions"`
	DedupedChunks   int64 `metric:"deduped_chunks"`
	Recovery        time.Duration
	// OpenWriters is the number of write handles begun and not yet
	// finished. Each pins segments, so whoever holds handles can account
	// for this number, and it is 0 when nobody does.
	OpenWriters int
}

// counters are one store's event counters, named field for field after
// the tagged fields of Stats (metrics.Bind).
type counters struct {
	Committed, Retired, ReclaimedBytes, FallthroughHits,
	CorruptChunks, TruncatedTails, DroppedVersions, DedupedChunks metrics.Counter
}

var registry = metrics.NewRegistry("chunkstore")

// The instruments no counter of Stats reports. The gauges reflect the
// store in the process that changed last.
var (
	segmentsGauge  = registry.Gauge("segments")
	liveBytesGauge = registry.Gauge("live_bytes")
	deadBytesGauge = registry.Gauge("dead_bytes")
	versionsGauge  = registry.Gauge("versions")
	chunksGauge    = registry.Gauge("chunks")
	recoveryNS     = registry.Histogram("recovery_ns")
)

// The registry lists every counter from start-up.
func init() { metrics.Bind[Stats](registry, new(counters)) }

// chunkLoc locates one stored entry body.
type chunkLoc struct {
	seg  *segmentFile
	off  int64
	size int
	// refs counts retained versions referencing the entry. A dead
	// entry (refs == 0) stays indexed — and resurrectable by a later
	// commit — until its segment is reclaimed.
	refs int
}

// versionRec is one retained version in the in-memory catalog.
type versionRec struct {
	version uint64
	key     string
	savedAt time.Time
	bytes   int64
	header  []byte
	hashes  []vformat.ChunkHash
}

// Store is a durable keyed chunk store rooted at one directory.
type Store struct {
	dir   string
	opts  Options
	clock simclock.Clock
	inj   *faults.Injector

	mu      sync.Mutex
	closed  bool
	failed  bool
	segs    []*segmentFile // ascending id
	active  *segmentFile
	nextSeg uint64
	log     *os.File
	logSize int64
	logDead int // superseded or retired records in the log
	index   map[vformat.ChunkHash]*chunkLoc
	models  map[string][]*versionRec // ascending version
	// recovery and openWriters are the state Stats reports beside n, the
	// event counters (which need no lock).
	recovery    time.Duration
	openWriters int
	n           counters
}

// Open opens (creating if needed) the store rooted at dir, replaying
// segments and the manifest log to rebuild the index and catalog.
// Torn tails are truncated; commits referencing missing chunks are
// dropped. Open is the crash-recovery path: a store killed at any
// write reopens to the last fully-committed state.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	clock := opts.Clock
	if clock == nil {
		clock = simclock.NewWall()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunkstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		clock:  clock,
		inj:    opts.Injector,
		index:  make(map[vformat.ChunkHash]*chunkLoc),
		models: make(map[string][]*versionRec),
	}
	metrics.Bind[Stats](registry, &s.n)
	start := clock.Now()
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.recovery = clock.Now().Sub(start)
	recoveryNS.Observe(s.recovery.Nanoseconds())
	s.syncGaugesLocked()
	openStores.Add(1)
	return s, nil
}

// recover replays the directory contents into memory.
func (s *Store) recover() error {
	_ = os.Remove(filepath.Join(s.dir, "manifest.log.tmp"))
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		var id uint64
		if n, _ := fmt.Sscanf(e.Name(), "seg-%08d.vseg", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := s.recoverSegment(id); err != nil {
			return err
		}
		if id >= s.nextSeg {
			s.nextSeg = id + 1
		}
	}
	if len(s.segs) > 0 {
		s.active = s.segs[len(s.segs)-1]
	}
	return s.recoverLog()
}

// recoverSegment scans one segment file, indexing every valid entry
// and truncating a torn tail.
func (s *Store) recoverSegment(id uint64) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("chunkstore: %w", err)
	}
	seg := &segmentFile{id: id, path: path, f: f}
	size := fi.Size()
	var magic [len(segMagic)]byte
	if size < int64(len(segMagic)) {
		// Created but never populated (crash before the magic landed):
		// reset to a fresh, valid segment.
		size = 0
	} else if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != segMagic {
		size = 0
	}
	if size == 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("chunkstore: %w", err)
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			f.Close()
			return fmt.Errorf("chunkstore: %w", err)
		}
		seg.size = int64(len(segMagic))
		seg.dirty = true
		s.segs = append(s.segs, seg)
		return nil
	}
	valid, err := scanEntries(f, size, func(kind byte, bodyOff int64, body []byte) error {
		var h vformat.ChunkHash
		switch {
		case kind == entryBlob:
			// Reserved kind: an older store's opaque payload. Dead weight
			// for the reclaimer, never indexed — and never a reason to
			// truncate the valid chunk entries behind it.
			seg.total += int64(len(body))
			return nil
		case kind == entryKeyed && len(body) > len(h) && vformat.VerifyChunkRecord(body[len(h):]):
			h = vformat.ChunkHash(body[:len(h)])
			body, bodyOff = body[len(h):], bodyOff+int64(len(h))
		case kind == entryChunk && vformat.VerifyChunkRecord(body):
			// Legacy kind: the key is the content hash.
			h = vformat.HashChunkRecord(body)
		default:
			// A kind of the other file, or a record that fails its own
			// checksum: treat as torn.
			return errors.New("stop")
		}
		if _, dup := s.index[h]; !dup {
			s.index[h] = &chunkLoc{seg: seg, off: bodyOff, size: len(body)}
		}
		// Duplicates (crash mid-compaction) count as dead weight here.
		seg.total += int64(len(body))
		return nil
	})
	if err != nil {
		// fn vetoed an entry: truncate there like a torn tail.
		err = nil
	}
	if valid < size {
		if terr := f.Truncate(valid); terr != nil {
			f.Close()
			return fmt.Errorf("chunkstore: %w", terr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return fmt.Errorf("chunkstore: %w", serr)
		}
		s.n.TruncatedTails.Inc()
	}
	seg.size = valid
	s.segs = append(s.segs, seg)
	return err
}

// recoverLog replays the manifest log, building the catalog and
// refcounts.
func (s *Store) recoverLog() error {
	path := filepath.Join(s.dir, "manifest.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	s.log = f
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	size := fi.Size()
	var magic [len(logMagic)]byte
	fresh := size < int64(len(logMagic))
	if !fresh {
		if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != logMagic {
			fresh = true
		}
	}
	if fresh {
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		if _, err := f.WriteAt([]byte(logMagic), 0); err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		s.logSize = int64(len(logMagic))
		return nil
	}
	valid, _ := scanEntries(f, size, func(kind byte, _ int64, body []byte) error {
		switch kind {
		case entryCommit:
			vr, model, err := decodeCommit(body)
			if err != nil {
				return errors.New("stop")
			}
			if vr == nil {
				// An older store's opaque-payload version: its body is a
				// reserved entry this store does not index.
				s.n.DroppedVersions.Inc()
				s.logDead++
				return nil
			}
			s.applyCommitLocked(model, vr)
		case entryRetire:
			model, version, err := decodeRetire(body)
			if err != nil {
				return errors.New("stop")
			}
			if vr := s.findLocked(model, version); vr != nil {
				s.dropVersionLocked(model, vr)
				s.logDead += 2 // the commit and this tombstone
			} else {
				s.logDead++
			}
		default:
			return errors.New("stop")
		}
		return nil
	})
	if valid < size {
		if err := f.Truncate(valid); err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		s.n.TruncatedTails.Inc()
	}
	s.logSize = valid
	return nil
}

// applyCommitLocked installs a replayed or freshly written commit
// record, dropping it if any referenced chunk is missing.
func (s *Store) applyCommitLocked(model string, vr *versionRec) {
	for _, h := range vr.hashes {
		if _, ok := s.index[h]; !ok {
			// The chunks did not survive (torn segment tail before the
			// commit's first fsync barrier — possible only for commits
			// that themselves never fully landed, or cross-file
			// corruption). Drop the version.
			s.n.DroppedVersions.Inc()
			s.logDead++
			return
		}
	}
	if old := s.findLocked(model, vr.version); old != nil {
		s.dropVersionLocked(model, old)
		s.logDead++ // the superseded commit record
	}
	vr.bytes = int64(len(vr.header))
	for _, h := range vr.hashes {
		loc := s.index[h]
		loc.refs++
		if loc.refs == 1 {
			loc.seg.live += int64(loc.size)
		}
		vr.bytes += int64(loc.size)
	}
	vs := s.models[model]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].version > vr.version })
	vs = append(vs, nil)
	copy(vs[i+1:], vs[i:])
	vs[i] = vr
	s.models[model] = vs
}

// dropVersionLocked removes a version from the catalog and releases
// its chunk references.
func (s *Store) dropVersionLocked(model string, vr *versionRec) {
	for _, h := range vr.hashes {
		loc, ok := s.index[h]
		if !ok || loc.refs == 0 {
			continue
		}
		loc.refs--
		if loc.refs == 0 {
			loc.seg.live -= int64(loc.size)
		}
	}
	vs := s.models[model]
	for i, v := range vs {
		if v == vr {
			s.models[model] = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(s.models[model]) == 0 {
		delete(s.models, model)
	}
}

// findLocked returns the catalog entry for model/version, or nil.
func (s *Store) findLocked(model string, version uint64) *versionRec {
	vs := s.models[model]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].version >= version })
	if i < len(vs) && vs[i].version == version {
		return vs[i]
	}
	return nil
}

// usableLocked gates every operation on store health.
func (s *Store) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.failed {
		return ErrFailed
	}
	return nil
}

// ensureActiveLocked returns a segment with room for need more bytes,
// rotating to a fresh file when the active one is full. A fresh
// segment accepts an oversize entry whole.
func (s *Store) ensureActiveLocked(need int64) (*segmentFile, error) {
	a := s.active
	if a != nil && (a.size+need <= s.opts.SegmentBytes || a.size <= int64(len(segMagic))) {
		return a, nil
	}
	path := filepath.Join(s.dir, segName(s.nextSeg))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("chunkstore: %w", err)
	}
	if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("chunkstore: %w", err)
	}
	seg := &segmentFile{id: s.nextSeg, path: path, f: f, size: int64(len(segMagic)), dirty: true}
	s.nextSeg++
	s.segs = append(s.segs, seg)
	s.active = seg
	return seg, nil
}

// appendRecordLocked appends one keyed entry — h, then the record — to
// the active segment and returns where the record landed. When the
// injector fires, a torn prefix lands on disk and the store fails,
// simulating a crash mid-append.
func (s *Store) appendRecordLocked(h vformat.ChunkHash, rec []byte, op string) (*chunkLoc, error) {
	n := entryOverhead + len(h) + len(rec)
	seg, err := s.ensureActiveLocked(int64(n))
	if err != nil {
		return nil, err
	}
	buf := getBuf(n)
	defer func() { putBuf(buf) }()
	buf = appendEntry(buf, entryKeyed, h[:], rec)
	if s.inj != nil {
		if ferr := s.inj.Op(op); ferr != nil {
			if tear := len(buf) / 2; tear > 0 {
				_, _ = seg.f.WriteAt(buf[:tear], seg.size)
			}
			s.failed = true
			return nil, fmt.Errorf("chunkstore: %w", ferr)
		}
	}
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		s.failed = true
		return nil, fmt.Errorf("chunkstore: %w", err)
	}
	loc := &chunkLoc{seg: seg, off: seg.size + int64(entryHeaderLen+len(h)), size: len(rec)}
	seg.size += int64(len(buf))
	seg.total += int64(len(rec))
	seg.dirty = true
	return loc, nil
}

// appendLogLocked appends one envelope to the manifest log with the
// same torn-write fault simulation as segment appends.
func (s *Store) appendLogLocked(kind byte, body []byte, op string) error {
	buf := getBuf(entryOverhead + len(body))
	defer func() { putBuf(buf) }()
	buf = appendEntry(buf, kind, body)
	if s.inj != nil {
		if ferr := s.inj.Op(op); ferr != nil {
			if tear := len(buf) / 2; tear > 0 {
				_, _ = s.log.WriteAt(buf[:tear], s.logSize)
			}
			s.failed = true
			return fmt.Errorf("chunkstore: %w", ferr)
		}
	}
	if _, err := s.log.WriteAt(buf, s.logSize); err != nil {
		s.failed = true
		return fmt.Errorf("chunkstore: %w", err)
	}
	s.logSize += int64(len(buf))
	return nil
}

// syncSegmentsLocked is commit barrier 1: every dirty segment reaches
// disk before the commit record that references its entries.
func (s *Store) syncSegmentsLocked() error {
	for _, seg := range s.segs {
		if !seg.dirty {
			continue
		}
		if err := seg.f.Sync(); err != nil {
			s.failed = true
			return fmt.Errorf("chunkstore: %w", err)
		}
		seg.dirty = false
	}
	return nil
}

// Writer is one version's write handle: Begin opens it, Append adds the
// version's chunk records as they become available, and Commit binds
// them to a model/version (or Abort gives up). Every entry the handle
// appended or deduplicated against — a dead (refs == 0) entry in an old
// segment included — is pinned: its segment is neither deleted nor
// compacted until the handle finishes, whatever other handles commit
// and reclaim in the meantime. An aborted (or abandoned) handle leaves
// only dead bytes for the reclaimer, the state a crash between append
// and commit leaves. A Writer is used by one goroutine; its fields are
// guarded by the store's mutex.
type Writer struct {
	s *Store
	// pins holds one element per Append: the segment whose pending
	// count this handle raised.
	pins []*segmentFile
	done bool
}

// Begin opens a write handle. The caller must finish it with a Commit or
// an Abort: until then it counts in Stats.OpenWriters and what it pins
// cannot be reclaimed.
func (s *Store) Begin() *Writer {
	s.mu.Lock()
	s.openWriters++
	s.mu.Unlock()
	return &Writer{s: s}
}

// Append stores one v2 chunk record under the key h, deduplicating
// against what the index already holds, and pins the entry for this
// handle. h names rec: every Append of h, by any writer, carries the same
// bytes — a content hash (HashChunkRecord) does, and so does a key no
// other record is ever given. The store writes h beside the record and
// never derives it. A record that will be written is checksum-verified
// first, so corrupt input never reaches disk. The record is durable (and
// referenced) only after Commit.
func (w *Writer) Append(h vformat.ChunkHash, rec []byte) error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.done {
		return ErrWriterFinished
	}
	if err := s.usableLocked(); err != nil {
		return err
	}
	loc, ok := s.index[h]
	if ok {
		s.n.DedupedChunks.Inc()
	} else {
		if !vformat.VerifyChunkRecord(rec) {
			return fmt.Errorf("%w: refusing corrupt input record", ErrCorrupt)
		}
		var err error
		if loc, err = s.appendRecordLocked(h, rec, "chunkstore/append"); err != nil {
			return err
		}
		s.index[h] = loc
	}
	loc.seg.pins++
	w.pins = append(w.pins, loc.seg)
	return nil
}

// Commit durably binds model/version to an ordered chunk hash list,
// fsyncing segments, then the commit record. On a nil return the
// version survives any crash. The version's references are taken before
// the handle's pins drop, and retention and reclaim run only after
// that. Commit finishes the handle whether or not it succeeds.
func (w *Writer) Commit(model string, version uint64, key string, header []byte, hashes []vformat.ChunkHash) error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.done {
		return ErrWriterFinished
	}
	err := s.writeCommitLocked(model, version, key, header, hashes)
	w.finishLocked()
	if err != nil {
		return err
	}
	return s.afterCommitLocked(model)
}

// Abort finishes the handle without committing: its pins drop and what
// it appended stays on disk as dead bytes until a later commit or GC
// reclaims the segments. Abort after Commit (or a second Abort) is a
// no-op.
func (w *Writer) Abort() {
	w.s.mu.Lock()
	w.finishLocked()
	w.s.mu.Unlock()
}

// finishLocked drops the handle's pins and marks it finished.
func (w *Writer) finishLocked() {
	if w.done {
		return
	}
	w.s.openWriters--
	for _, seg := range w.pins {
		seg.pins--
	}
	w.pins = nil
	w.done = true
}

// writeCommitLocked runs the two commit barriers — dirty segments, then
// the commit record — and installs the version in the catalog, taking
// its chunk references.
func (s *Store) writeCommitLocked(model string, version uint64, key string, header []byte, hashes []vformat.ChunkHash) error {
	if err := s.usableLocked(); err != nil {
		return err
	}
	if model == "" || len(hashes) == 0 {
		return errors.New("chunkstore: commit needs a model and at least one chunk")
	}
	bytes := int64(len(header))
	for _, h := range hashes {
		loc, ok := s.index[h]
		if !ok {
			return fmt.Errorf("%w: %s", ErrMissingChunk, h)
		}
		bytes += int64(loc.size)
	}
	if err := s.syncSegmentsLocked(); err != nil {
		return err
	}
	vr := &versionRec{
		version: version,
		key:     key,
		savedAt: s.clock.Now(),
		bytes:   bytes,
		header:  append([]byte(nil), header...),
		hashes:  append([]vformat.ChunkHash(nil), hashes...),
	}
	body := encodeCommit(model, vr)
	if err := s.appendLogLocked(entryCommit, body, "chunkstore/commit"); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		s.failed = true
		return fmt.Errorf("chunkstore: %w", err)
	}
	s.applyCommitLocked(model, vr)
	s.n.Committed.Inc()
	return nil
}

// afterCommitLocked enforces model's retention policy and reclaims
// whatever storage that (or an earlier abort) freed.
func (s *Store) afterCommitLocked(model string) error {
	if err := s.enforceRetentionLocked(model); err != nil {
		return err
	}
	err := s.reclaimLocked()
	s.syncGaugesLocked()
	return err
}

// PutBlob stores a published checkpoint blob under model/version,
// dispatching on its encoding: a plain chunked (v2) blob is split into
// content-addressed records, a manifest-bearing blob stores its
// carried records and resolves elided ones against chunks already on
// disk, and anything else is refused with ErrNotChunked.
func (s *Store) PutBlob(model string, version uint64, key string, blob []byte) error {
	var header []byte
	var hashes []vformat.ChunkHash // a manifest's own list; nil for a plain chunked blob
	var recs [][]byte
	collect := func(rec []byte) error { recs = append(recs, rec); return nil }
	switch {
	case vformat.IsChunked(blob):
		_, _, headerLen, err := vformat.ParseChunkHeader(blob)
		if err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		header = blob[:headerLen]
		if err := vformat.WalkChunkRecords(blob, collect); err != nil {
			return err
		}
	case vformat.IsManifest(blob):
		man, err := vformat.ParseManifest(blob)
		if err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		header, hashes = man.Header, man.Hashes
		if err := vformat.SplitManifestRecords(blob, collect); err != nil {
			return err
		}
	default:
		return ErrNotChunked
	}
	w := s.Begin()
	carried := make([]vformat.ChunkHash, len(recs))
	for i, rec := range recs {
		carried[i] = vformat.HashChunkRecord(rec)
		if err := w.Append(carried[i], rec); err != nil {
			w.Abort()
			return err
		}
	}
	if !vformat.IsManifest(blob) {
		// A plain chunked blob's hash list is its records', in order; a
		// manifest's elided chunks resolve against the index at Commit.
		hashes = carried
	}
	return w.Commit(model, version, key, header, hashes)
}

// ReadChunk reads the stored record for h into buf — reallocated only
// when its capacity is too small — and returns the slice holding it, so a
// caller streaming many records recycles one buffer and a caller that
// wants to keep the bytes passes nil. The store holds no reference to the
// result. The index lookup runs under the store's lock and pins the
// entry's segment against reclaim; the disk read and the record checksum
// run outside it, so readers proceed in parallel with each other and with
// every writer, and the pin is dropped before ReadChunk returns on every
// path. A record that fails its checksum is ErrCorrupt and never
// returned; a hash the index does not hold is ErrMissingChunk. Every hit
// is by definition a memory-cache miss at the caller and counts as a
// fallthrough.
func (s *Store) ReadChunk(h vformat.ChunkHash, buf []byte) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	loc, ok := s.index[h]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrMissingChunk, h)
	}
	seg, off, size := loc.seg, loc.off, loc.size
	seg.pins++
	s.mu.Unlock()

	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	err := s.readPinned(seg, off, buf, h)

	s.mu.Lock()
	seg.pins--
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.n.FallthroughHits.Inc()
	return buf, nil
}

// readPinned reads the entry body at off of seg into buf and verifies the
// record's checksum. The caller has pinned seg and does not hold the
// store's lock; the "chunkstore/read" fault tap sits before the read.
func (s *Store) readPinned(seg *segmentFile, off int64, buf []byte, h vformat.ChunkHash) error {
	err := s.inj.Op("chunkstore/read")
	if err == nil {
		_, err = seg.f.ReadAt(buf, off)
	}
	if err != nil {
		return fmt.Errorf("chunkstore: read %s: %w", h, err)
	}
	if !vformat.VerifyChunkRecord(buf) {
		s.n.CorruptChunks.Inc()
		return fmt.Errorf("%w: %s", ErrCorrupt, h)
	}
	return nil
}

// Contains reports whether h is on disk (live or resurrectable).
func (s *Store) Contains(h vformat.ChunkHash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[h]
	return ok
}

// LoadVersion reassembles the stored payload for model/version: the
// v2 header followed by every chunk record in manifest order, in one
// allocation of the version's size. Like ReadChunk it resolves the
// version's entries under the store's lock, pinning their segments, and
// reads and checksum-verifies each outside it through the same fault tap,
// so a whole-version load delays no writer and no other reader; the pins
// drop before it returns on every path. A record that cannot be read or
// fails its checksum fails the load: a short or damaged blob is never
// returned.
func (s *Store) LoadVersion(model string, version uint64) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	vr := s.findLocked(model, version)
	if vr == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s v%d", ErrNotFound, model, version)
	}
	locs := make([]chunkLoc, 0, len(vr.hashes)) // copies: seg, off and size as of now
	var err error
	for _, h := range vr.hashes {
		loc, ok := s.index[h]
		if !ok {
			err = fmt.Errorf("%w: %s", ErrMissingChunk, h)
			break
		}
		loc.seg.pins++
		locs = append(locs, *loc)
	}
	s.mu.Unlock()

	var out []byte
	if err == nil {
		out = make([]byte, 0, vr.bytes)
		out = append(out, vr.header...)
		for i, loc := range locs {
			n := len(out)
			out = append(out, make([]byte, loc.size)...)
			if err = s.readPinned(loc.seg, loc.off, out[n:], vr.hashes[i]); err != nil {
				break
			}
		}
	}

	s.mu.Lock()
	for _, loc := range locs {
		loc.seg.pins--
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.n.FallthroughHits.Inc()
	return out, nil
}

// Meta returns the metadata for model/version.
func (s *Store) Meta(model string, version uint64) (VersionMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vr := s.findLocked(model, version)
	if vr == nil {
		return VersionMeta{}, false
	}
	return s.metaLocked(model, vr), true
}

// Latest returns the newest retained version of model.
func (s *Store) Latest(model string) (VersionMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.models[model]
	if len(vs) == 0 {
		return VersionMeta{}, false
	}
	return s.metaLocked(model, vs[len(vs)-1]), true
}

func (s *Store) metaLocked(model string, vr *versionRec) VersionMeta {
	return VersionMeta{
		Model:   model,
		Version: vr.version,
		Key:     vr.key,
		Header:  append([]byte(nil), vr.header...),
		Hashes:  append([]vformat.ChunkHash(nil), vr.hashes...),
		Bytes:   vr.bytes,
		SavedAt: vr.savedAt,
	}
}

// Versions returns the retained version numbers of model, ascending.
func (s *Store) Versions(model string) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.models[model]
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = v.version
	}
	return out
}

// Models returns the retained model names, sorted.
func (s *Store) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.models))
	for m := range s.models {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Retire durably drops model/version (tombstone + fsync) and reclaims
// whatever storage that frees.
func (s *Store) Retire(model string, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	vr := s.findLocked(model, version)
	if vr == nil {
		return fmt.Errorf("%w: %s v%d", ErrNotFound, model, version)
	}
	if err := s.retireLocked(model, []*versionRec{vr}); err != nil {
		return err
	}
	err := s.reclaimLocked()
	s.syncGaugesLocked()
	return err
}

// retireLocked appends tombstones for vs (one fsync for the batch) and
// releases their references.
func (s *Store) retireLocked(model string, vs []*versionRec) error {
	for _, vr := range vs {
		if err := s.appendLogLocked(entryRetire, encodeRetire(model, vr.version), "chunkstore/gc"); err != nil {
			return err
		}
	}
	if err := s.log.Sync(); err != nil {
		s.failed = true
		return fmt.Errorf("chunkstore: %w", err)
	}
	for _, vr := range vs {
		s.dropVersionLocked(model, vr)
		s.logDead += 2
		s.n.Retired.Inc()
	}
	return nil
}

// GC enforces the retention policy for every model and reclaims dead
// segments and log records.
func (s *Store) GC() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	for model := range s.models {
		if err := s.enforceRetentionLocked(model); err != nil {
			return err
		}
	}
	err := s.reclaimLocked()
	s.syncGaugesLocked()
	return err
}

// enforceRetentionLocked retires the oldest versions of model that
// fall outside the policy. The newest version always survives.
func (s *Store) enforceRetentionLocked(model string) error {
	pol := s.opts.Retention
	vs := s.models[model]
	if len(vs) <= 1 {
		return nil
	}
	cut := 0 // retire vs[:cut]
	if pol.MaxVersions > 0 && len(vs) > pol.MaxVersions {
		cut = len(vs) - pol.MaxVersions
	}
	if pol.MaxAge > 0 {
		oldest := s.clock.Now().Add(-pol.MaxAge)
		for cut < len(vs)-1 && vs[cut].savedAt.Before(oldest) {
			cut++
		}
	}
	if pol.MaxBytes > 0 {
		var sum int64
		keepFrom := len(vs) - 1
		for ; keepFrom >= 0; keepFrom-- {
			if sum += vs[keepFrom].bytes; sum > pol.MaxBytes {
				break
			}
		}
		if c := keepFrom + 1; c > cut {
			if c > len(vs)-1 {
				c = len(vs) - 1 // the newest version always survives
			}
			cut = c
		}
	}
	if cut == 0 {
		return nil
	}
	return s.retireLocked(model, append([]*versionRec(nil), vs[:cut]...))
}

// reclaimLocked deletes fully-dead segments, compacts mostly-dead
// ones by copying live entries forward, and rewrites the manifest log
// when tombstones dominate. Crash-safe at every step: recovery treats
// leftover old copies as dead duplicates.
func (s *Store) reclaimLocked() error {
	for _, seg := range append([]*segmentFile(nil), s.segs...) {
		if seg == s.active || seg.pins > 0 {
			continue
		}
		switch {
		case seg.live == 0 && seg.total > 0:
			if err := s.deleteSegmentLocked(seg); err != nil {
				return err
			}
		case seg.total > 0 && seg.live*2 < seg.total:
			if err := s.compactSegmentLocked(seg); err != nil {
				return err
			}
		}
	}
	if s.logDead > 64 && s.logDead > s.liveCommitsLocked() {
		return s.compactLogLocked()
	}
	return nil
}

func (s *Store) liveCommitsLocked() int {
	n := 0
	for _, vs := range s.models {
		n += len(vs)
	}
	return n
}

// deleteSegmentLocked removes a segment with no live entries.
func (s *Store) deleteSegmentLocked(seg *segmentFile) error {
	if s.inj != nil {
		if ferr := s.inj.Op("chunkstore/gc"); ferr != nil {
			// Crash before the unlink: the file survives and recovery
			// sees a fully-dead segment again.
			s.failed = true
			return fmt.Errorf("chunkstore: %w", ferr)
		}
	}
	seg.f.Close()
	if err := os.Remove(seg.path); err != nil {
		s.failed = true
		return fmt.Errorf("chunkstore: %w", err)
	}
	for h, loc := range s.index {
		if loc.seg == seg {
			delete(s.index, h)
		}
	}
	for i, sg := range s.segs {
		if sg == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	s.n.ReclaimedBytes.Add(seg.total)
	return nil
}

// compactSegmentLocked copies the live entries of a mostly-dead
// segment into the active one, each under its key (a legacy entry is
// rewritten keyed), then deletes it. A crash mid-copy leaves duplicates
// that recovery counts as dead weight.
func (s *Store) compactSegmentLocked(seg *segmentFile) error {
	type move struct {
		h   vformat.ChunkHash
		loc *chunkLoc
	}
	var moves []move
	for h, loc := range s.index {
		if loc.seg == seg && loc.refs > 0 {
			moves = append(moves, move{h, loc})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].loc.off < moves[j].loc.off })
	buf := getBuf(0)
	// The closure reads buf at return time: growBuf recycles the old
	// buffer when it reallocates, so deferring putBuf on the original
	// value would return the same array to the pool twice.
	defer func() { putBuf(buf) }()
	for _, m := range moves {
		buf = growBuf(buf, m.loc.size)
		rec := buf[:m.loc.size]
		if _, err := seg.f.ReadAt(rec, m.loc.off); err != nil {
			s.failed = true
			return fmt.Errorf("chunkstore: %w", err)
		}
		newLoc, err := s.appendRecordLocked(m.h, rec, "chunkstore/gc")
		if err != nil {
			return err
		}
		newLoc.refs = m.loc.refs
		newLoc.seg.live += int64(newLoc.size)
		s.index[m.h] = newLoc
		seg.live -= int64(newLoc.size)
	}
	// The copies must be durable before the originals disappear.
	if err := s.syncSegmentsLocked(); err != nil {
		return err
	}
	return s.deleteSegmentLocked(seg)
}

// compactLogLocked rewrites the manifest log with only live commit
// records, swapping it in with an atomic rename.
func (s *Store) compactLogLocked() error {
	if s.inj != nil {
		if ferr := s.inj.Op("chunkstore/gc"); ferr != nil {
			// Crash before the rename: the tmp file is removed on the
			// next Open and the old log is still authoritative.
			s.failed = true
			return fmt.Errorf("chunkstore: %w", ferr)
		}
	}
	tmpPath := filepath.Join(s.dir, "manifest.log.tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	buf := getBuf(len(logMagic))
	buf = append(buf, logMagic...)
	models := make([]string, 0, len(s.models))
	for m := range s.models {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		for _, vr := range s.models[m] {
			buf = appendEntry(buf, entryCommit, encodeCommit(m, vr))
		}
	}
	_, werr := tmp.WriteAt(buf, 0)
	size := int64(len(buf))
	putBuf(buf)
	if werr == nil {
		werr = tmp.Sync()
	}
	if werr != nil {
		tmp.Close()
		os.Remove(tmpPath)
		s.failed = true
		return fmt.Errorf("chunkstore: %w", werr)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, "manifest.log")); err != nil {
		tmp.Close()
		s.failed = true
		return fmt.Errorf("chunkstore: %w", err)
	}
	s.log.Close()
	s.log = tmp
	s.logSize = size
	s.logDead = 0
	if dir, derr := os.Open(s.dir); derr == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// Stats returns a snapshot of store state and counters.
func (s *Store) Stats() Stats {
	st := metrics.View[Stats](&s.n)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stateLocked(&st)
	return st
}

// stateLocked fills the state fields of st.
func (s *Store) stateLocked(st *Stats) {
	st.Recovery, st.OpenWriters = s.recovery, s.openWriters
	st.Segments, st.Versions, st.Chunks = len(s.segs), s.liveCommitsLocked(), len(s.index)
	for _, seg := range s.segs {
		st.LiveBytes += seg.live
		st.DeadBytes += seg.total - seg.live
	}
}

// syncGaugesLocked publishes current state to the process metrics.
func (s *Store) syncGaugesLocked() {
	var st Stats
	s.stateLocked(&st)
	segmentsGauge.Set(int64(st.Segments))
	liveBytesGauge.Set(st.LiveBytes)
	deadBytesGauge.Set(st.DeadBytes)
	versionsGauge.Set(int64(st.Versions))
	chunksGauge.Set(int64(st.Chunks))
}

// Metrics returns the package metrics registry (for tests and tools).
func Metrics() *metrics.Registry { return registry }

// Close flushes and closes every file. The store is unusable after. The
// last open store to close drops the scratch pool.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if openStores.Add(-1) == 0 {
		scratch.Drop()
	}
	var first error
	if !s.failed {
		for _, seg := range s.segs {
			if seg.dirty {
				if err := seg.f.Sync(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	s.closeFiles()
	return first
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
	if s.log != nil {
		s.log.Close()
	}
}

// encodeCommit serializes a commit record body:
//
//	modelLen u16 | model | version u64 | flags u8 | savedAt i64 |
//	keyLen u16 | key | headerLen u32 | header | numHashes u32 | hash…
//
// flags is written as zero; bit 0 is reserved (see decodeCommit).
func encodeCommit(model string, vr *versionRec) []byte {
	b := make([]byte, 0, 2+len(model)+8+1+8+2+len(vr.key)+4+len(vr.header)+4+len(vr.hashes)*vformat.ChunkHashLen)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(model)))
	b = append(b, model...)
	b = binary.LittleEndian.AppendUint64(b, vr.version)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(vr.savedAt.UnixNano()))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vr.key)))
	b = append(b, vr.key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vr.header)))
	b = append(b, vr.header...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vr.hashes)))
	return vformat.AppendHashes(b, vr.hashes)
}

// decodeCommit parses a commit record body. A well-formed record with
// the reserved flag bit 0 set — an older store's opaque-payload version
// — parses to a nil record and a nil error.
func decodeCommit(b []byte) (*versionRec, string, error) {
	r := recReader{b: b}
	model := r.str16()
	vr := &versionRec{}
	vr.version = r.u64()
	flags := r.u8()
	vr.savedAt = time.Unix(0, int64(r.u64()))
	vr.key = r.str16()
	vr.header = r.bytes32()
	n := int(r.u32())
	if r.err == nil && n >= 0 && n*vformat.ChunkHashLen == len(r.b)-r.off {
		vr.hashes = make([]vformat.ChunkHash, n)
		for i := range vr.hashes {
			copy(vr.hashes[i][:], r.b[r.off:])
			r.off += vformat.ChunkHashLen
		}
	} else if r.err == nil {
		r.err = errors.New("chunkstore: bad hash list")
	}
	if r.err != nil {
		return nil, "", r.err
	}
	if flags&1 != 0 {
		return nil, model, nil
	}
	return vr, model, nil
}

// encodeRetire serializes a retire tombstone body.
func encodeRetire(model string, version uint64) []byte {
	b := make([]byte, 0, 2+len(model)+8)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(model)))
	b = append(b, model...)
	return binary.LittleEndian.AppendUint64(b, version)
}

// decodeRetire parses a retire tombstone body.
func decodeRetire(b []byte) (string, uint64, error) {
	r := recReader{b: b}
	model := r.str16()
	version := r.u64()
	if r.err != nil {
		return "", 0, r.err
	}
	return model, version, nil
}

// recReader is a bounds-checked little-endian record reader.
type recReader struct {
	b   []byte
	off int
	err error
}

func (r *recReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = errors.New("chunkstore: short record")
		}
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *recReader) u8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *recReader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *recReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *recReader) str16() string {
	n := r.take(2)
	if n == nil {
		return ""
	}
	return string(r.take(int(binary.LittleEndian.Uint16(n))))
}

func (r *recReader) bytes32() []byte {
	n := r.take(4)
	if n == nil {
		return nil
	}
	v := r.take(int(binary.LittleEndian.Uint32(n)))
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}
