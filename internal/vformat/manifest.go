package vformat

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"

	"viper/internal/nn"
)

// Content-addressed manifests (wire format v2.1, magic VPRM0001): every
// v2 chunk record has a stable content hash — SHA-256 of the full
// record bytes truncated to 16 bytes — so identical chunks across
// adjacent checkpoint versions can be recognized, stored, and shipped
// once. A manifest pairs the v2 stream header with the ordered hash
// list of its chunks; a manifest-bearing blob appends any subset of the
// records behind it. A receiver that still holds the previous version
// reconciles the new checkpoint locally: its unchanged chunks fill the
// gaps, only changed chunks travel on the wire (rsync's algorithm
// specialized to fixed chunk boundaries).
//
// Manifest-bearing blob layout:
//
//	"VPRM0001" | headerLen u32 | v2 header bytes (VPRC0002 …) |
//	numChunks u32 | hash × numChunks (16 bytes each) | crc u32 |
//	chunk records … (any subset, packed back-to-back)
//
// The CRC covers every byte from the magic through the hash list. A
// blob carrying every record is "full" and self-contained: DecodeAuto
// decodes it without a cache, which is what keeps KV-staged recovery
// working when delta mode is on.

const (
	// manifestMagic starts a manifest or manifest-bearing blob.
	manifestMagic = "VPRM0001"
	// ChunkHashLen is the truncated content-hash size in bytes.
	ChunkHashLen = 16
	// defaultChunkCacheEntries bounds a ChunkCache when the caller does
	// not choose a size: at the default 256 KiB chunk payload this is
	// ~256 MiB of retained records, a few full snapshots' worth.
	defaultChunkCacheEntries = 1024
)

// ErrMissingChunk is returned when a manifest references a chunk that
// is neither carried by the blob nor held locally.
var ErrMissingChunk = errors.New("vformat: manifest references a chunk not held locally")

// ChunkHash is the truncated SHA-256 content hash of one encoded chunk
// record (header, payload, and trailing CRC included), the stable
// identity a chunk keeps across versions, caches, and relays.
type ChunkHash [ChunkHashLen]byte

// String renders the hash as lowercase hex.
func (h ChunkHash) String() string { return hex.EncodeToString(h[:]) }

// HashChunkRecord computes the content hash of one encoded chunk
// record. Identical record bytes — same span, same encoded payload —
// yield the same hash regardless of which version shipped them.
func HashChunkRecord(rec []byte) ChunkHash {
	sum := sha256.Sum256(rec)
	var h ChunkHash
	copy(h[:], sum[:ChunkHashLen])
	return h
}

// AppendHashes appends each hash's raw bytes to b (the wire layout of
// have-lists and need-lists).
func AppendHashes(b []byte, hashes []ChunkHash) []byte {
	for _, h := range hashes {
		b = append(b, h[:]...)
	}
	return b
}

// SplitHashes parses a packed hash list produced by AppendHashes.
func SplitHashes(b []byte) ([]ChunkHash, error) {
	if len(b)%ChunkHashLen != 0 {
		return nil, fmt.Errorf("vformat: hash list length %d is not a multiple of %d", len(b), ChunkHashLen)
	}
	hashes := make([]ChunkHash, len(b)/ChunkHashLen)
	for i := range hashes {
		copy(hashes[i][:], b[i*ChunkHashLen:])
	}
	return hashes, nil
}

// EncodeManifest builds the manifest section for a v2 header and its
// ordered chunk hashes. The result is self-delimiting: it is both a
// standalone wire payload and the prefix of a manifest-bearing blob.
func EncodeManifest(header []byte, hashes []ChunkHash) []byte {
	b := make([]byte, 0, len(manifestMagic)+4+len(header)+4+len(hashes)*ChunkHashLen+4)
	b = append(b, manifestMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(header)))
	b = append(b, header...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hashes)))
	b = AppendHashes(b, hashes)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// ChunkManifest is a parsed manifest: the embedded v2 header, its
// layout, and the ordered content hashes of every chunk.
type ChunkManifest struct {
	// Header is the embedded v2 stream header (VPRC0002 …).
	Header []byte
	// Layout is the parsed chunk layout of Header.
	Layout *ChunkLayout
	// Hashes holds chunk i's content hash at index i.
	Hashes []ChunkHash
	// Len is the encoded manifest section length; in a manifest-bearing
	// blob, chunk records start at this offset.
	Len int
}

// IsManifest reports whether blob starts with the manifest magic.
func IsManifest(blob []byte) bool {
	return len(blob) >= len(manifestMagic) && string(blob[:len(manifestMagic)]) == manifestMagic
}

// ParseManifest parses the manifest section at the head of b (trailing
// record bytes, if any, are ignored).
func ParseManifest(b []byte) (*ChunkManifest, error) {
	if !IsManifest(b) {
		return nil, fmt.Errorf("vformat: bad manifest magic")
	}
	r := &headerReader{b: b, off: len(manifestMagic)}
	hl, err := r.u32()
	if err != nil {
		return nil, err
	}
	if hl > 1<<28 {
		return nil, fmt.Errorf("%w: implausible embedded header length %d", ErrCorruptChunk, hl)
	}
	header, err := r.take(int(hl))
	if err != nil {
		return nil, err
	}
	layout, _, _, err := ParseChunkHeader(header)
	if err != nil {
		return nil, fmt.Errorf("vformat: manifest embedded header: %w", err)
	}
	nc, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(nc) != layout.NumChunks {
		return nil, fmt.Errorf("%w: manifest lists %d hashes for %d chunks", ErrCorruptChunk, nc, layout.NumChunks)
	}
	raw, err := r.take(int(nc) * ChunkHashLen)
	if err != nil {
		return nil, err
	}
	body := r.off
	sum, err := r.u32()
	if err != nil {
		return nil, err
	}
	if sum != crc32.ChecksumIEEE(b[:body]) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorruptChunk)
	}
	hashes, _ := SplitHashes(raw)
	return &ChunkManifest{Header: header, Layout: layout, Hashes: hashes, Len: r.off}, nil
}

// PlanDelta plans a delta send from a plain chunked blob: the manifest
// section plus the records the have predicate does not claim (nil have
// keeps every record). The returned records alias blob. elided is the
// byte total of the records left out.
func PlanDelta(blob []byte, have func(ChunkHash) bool) (manifest []byte, records [][]byte, hashes []ChunkHash, elided int64, err error) {
	if hashes, err = ChunkHashesOf(blob); err != nil {
		return nil, nil, nil, 0, err
	}
	manifest, records, elided, err = PlanDeltaHashed(blob, hashes, have)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return manifest, records, hashes, elided, nil
}

// PlanDeltaHashed is PlanDelta for a caller that already holds the
// blob's record hashes in index order (ChunkEncoder.Hashes), so no
// payload byte is hashed a second time. The hashes are trusted to be
// this blob's; only their count is checked against the header.
func PlanDeltaHashed(blob []byte, hashes []ChunkHash, have func(ChunkHash) bool) (manifest []byte, records [][]byte, elided int64, err error) {
	layout, _, headerLen, err := ParseChunkHeader(blob)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(hashes) != layout.NumChunks {
		return nil, nil, 0, fmt.Errorf("vformat: %d hashes supplied for %d chunks", len(hashes), layout.NumChunks)
	}
	i := 0
	err = splitRecords(layout, blob, headerLen, func(rec []byte) error {
		if have != nil && have(hashes[i]) {
			elided += int64(len(rec))
		} else {
			records = append(records, rec)
		}
		i++
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return EncodeManifest(blob[:headerLen], hashes), records, elided, nil
}

// BuildManifestBlob assembles a manifest-bearing blob from a plain
// chunked blob: the manifest section followed by every record whose
// hash the have predicate does not claim. A nil have keeps every record
// (a full, self-contained blob). It returns the blob, the per-chunk
// hashes, the number of records carried, and the bytes elided.
func BuildManifestBlob(blob []byte, have func(ChunkHash) bool) (delta []byte, hashes []ChunkHash, carried int, elided int64, err error) {
	manifest, keep, hashes, elided, err := PlanDelta(blob, have)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	size := len(manifest)
	for _, rec := range keep {
		size += len(rec)
	}
	delta = make([]byte, 0, size)
	delta = append(delta, manifest...)
	for _, rec := range keep {
		delta = append(delta, rec...)
	}
	return delta, hashes, len(keep), elided, nil
}

// WalkChunkRecords walks the packed chunk records of a plain chunked
// blob, calling fn with each record slice (aliasing blob).
func WalkChunkRecords(blob []byte, fn func(rec []byte) error) error {
	layout, _, headerLen, err := ParseChunkHeader(blob)
	if err != nil {
		return err
	}
	return splitRecords(layout, blob, headerLen, fn)
}

// SplitManifestRecords walks the chunk records a manifest-bearing blob
// carries inline (the packed tail after the hash list), calling fn with
// each record slice (aliasing blob) without decoding payloads. A bare
// manifest carries no records and fn is never called.
func SplitManifestRecords(blob []byte, fn func(rec []byte) error) error {
	man, err := ParseManifest(blob)
	if err != nil {
		return err
	}
	stride := man.Layout.Precision.BytesPerElement()
	tail := blob[man.Len:]
	off := 0
	for off < len(tail) {
		if off+chunkRecHeaderLen > len(tail) {
			return fmt.Errorf("%w: truncated record after manifest", ErrCorruptChunk)
		}
		count := int(binary.LittleEndian.Uint32(tail[off+16:]))
		size := chunkRecOverhead + count*stride
		if count > man.Layout.ChunkElems || off+size > len(tail) {
			return fmt.Errorf("%w: record overruns manifest blob", ErrCorruptChunk)
		}
		if err := fn(tail[off : off+size]); err != nil {
			return err
		}
		off += size
	}
	return nil
}

// ChunkHashesOf returns the ordered content hashes of every record in a
// plain chunked blob, hashed on the worker pool ChunkEncoder.Hashes uses
// (GOMAXPROCS workers).
func ChunkHashesOf(blob []byte) ([]ChunkHash, error) {
	var recs [][]byte
	err := WalkChunkRecords(blob, func(rec []byte) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	hashes := make([]ChunkHash, len(recs))
	hashRecords(hashes, recs, runtime.GOMAXPROCS(0))
	return hashes, nil
}

// ChunkCache holds chunk records keyed by content hash: the records
// ReconcileBlob may take a manifest's elided chunks from. It holds at most
// the entry count it was built with; once full, Put leaves it as it is.
// Records enter by copy and are never written afterwards. Not safe for
// concurrent use.
type ChunkCache struct {
	max int
	m   map[ChunkHash][]byte
}

// NewChunkCache builds a cache bounded to max entries (<=0 selects the
// default, ~a few snapshots at the default chunk size).
func NewChunkCache(max int) *ChunkCache {
	if max <= 0 {
		max = defaultChunkCacheEntries
	}
	return &ChunkCache{max: max, m: make(map[ChunkHash][]byte)}
}

// Put copies rec into the cache under its content hash, unless the hash is
// cached already or the cache is full.
func (c *ChunkCache) Put(h ChunkHash, rec []byte) {
	if _, ok := c.m[h]; !ok && len(c.m) < c.max {
		c.m[h] = slices.Clone(rec)
	}
}

// Get returns the cached record for h. The returned bytes are owned by the
// cache: callers must not mutate them.
func (c *ChunkCache) Get(h ChunkHash) ([]byte, bool) {
	rec, ok := c.m[h]
	return rec, ok
}

// PutAll hashes and caches every record of a plain chunked blob. The
// records are sub-slices of blob, so they are copied in (Put).
func (c *ChunkCache) PutAll(blob []byte) error {
	return WalkChunkRecords(blob, func(rec []byte) error {
		c.Put(HashChunkRecord(rec), rec)
		return nil
	})
}

// SpanSource is a complete decoded checkpoint whose record hashes are
// known position by position: what a ManifestAssembler takes unchanged
// chunks from — copied out of it, or already in place in a clone of it —
// instead of fetching, checking and decoding their records again. Weights
// and hashes are shared, not copied, and must not change once the source
// exists.
type SpanSource struct {
	layout  *ChunkLayout
	hashes  []ChunkHash
	weights nn.Snapshot
}

// NewSpanSource pairs weights with the content hashes of the records they
// were decoded from: header is the v2 stream header those records
// travelled under (bytes behind it are ignored, so a plain chunked blob
// serves), hashes[i] the hash of the record at chunk index i. It fails if
// the three do not describe the same model.
func NewSpanSource(header []byte, hashes []ChunkHash, weights nn.Snapshot) (*SpanSource, error) {
	layout, _, _, err := ParseChunkHeader(header)
	if err != nil {
		return nil, err
	}
	if len(hashes) != layout.NumChunks {
		return nil, fmt.Errorf("vformat: %d hashes supplied for %d chunks", len(hashes), layout.NumChunks)
	}
	if len(weights) != len(layout.Tensors) {
		return nil, fmt.Errorf("vformat: %d tensors decoded, the header lists %d", len(weights), len(layout.Tensors))
	}
	for i, t := range layout.Tensors {
		if int64(len(weights[i].Data)) != t.Elems {
			return nil, fmt.Errorf("vformat: tensor %d holds %d elements, the header says %d", i, len(weights[i].Data), t.Elems)
		}
	}
	return &SpanSource{layout: layout, hashes: hashes, weights: weights}, nil
}

// Hashes returns the record hash of every position, by chunk index: all a
// manifest can inherit from s, since a record hash embeds its index. The
// slice is s's own and must not be written.
func (s *SpanSource) Hashes() []ChunkHash { return s.hashes }

// Weights returns the decoded weights s shares, which must not be written.
func (s *SpanSource) Weights() nn.Snapshot { return s.weights }

// Layout returns the chunk layout s's weights were decoded under.
func (s *SpanSource) Layout() *ChunkLayout { return s.layout }

// BackBuffer is a private copy of a span source's decoded weights: what the
// next manifest is assembled into instead of a fresh allocation. It is good
// for one assembly (NewManifestAssembler takes the weights out of it)
// and only against the source it was cloned from. Until an assembly into it
// completes, nobody but that assembler reads or writes the copy; a copy an
// abandoned assembly wrote into is torn and can only be let go. Not safe for
// concurrent use.
type BackBuffer struct {
	of      *SpanSource
	weights nn.Snapshot // nil once an assembler took them
}

// Clone copies s's decoded weights, reading s only, into a back buffer for
// the next manifest: into target's arrays when s's layout fits them — a
// snapshot nobody else reads or writes, whatever it held — and otherwise
// (nil included) into one fresh allocation per tensor.
func (s *SpanSource) Clone(target nn.Snapshot) *BackBuffer {
	fits := s.layout.Fits(target)
	w := make(nn.Snapshot, len(s.weights))
	for i, nt := range s.weights {
		if fits {
			w[i].Data = target[i].Data
			copy(w[i].Data, nt.Data)
		} else {
			w[i].Data = slices.Clone(nt.Data)
		}
	}
	return &BackBuffer{of: s, weights: w}
}

// ManifestAssembler reconciles one manifest against what is held locally:
// positions a span source already holds decoded are copied from it (or left
// as they are in its clone), wire records are added as they arrive, and the
// set of hashes still outstanding is reported so the receiver can ask the
// sender to re-send chunks the source no longer holds where the manifest
// names them. Add may be called concurrently.
type ManifestAssembler struct {
	man *ChunkManifest
	asm *ChunkAssembler

	mu sync.Mutex
	// covered[i]: position i holds the record the manifest names there
	// (record bytes embed the index, so a hash belongs to one position).
	covered   []bool
	inherited int
	inPlace   bool // assembling into a back buffer
}

// NewManifestAssembler parses the manifest section of blob (a bare
// manifest payload or a manifest-bearing blob) and seeds the assembly
// from the span source src. Every position whose hash equals src's at the
// same index under an equal layout is inherited: its element span is
// copied out of src's decoded weights and no record is read — hash
// equality at the index plus layout equality stand in for the record's
// framing and CRC checks, which ran when the span being copied was decoded
// (or inherited, inductively, from one that was). A nil src, or one laid
// out differently, inherits nothing. Records carried by the blob itself
// are added through the per-record checks.
//
// back, if not nil, is a clone of src to assemble into: an inherited
// position already holds its span there and is only marked, and every other
// position is decoded over the stale bytes — nothing model-sized is
// allocated and no span is copied. InPlace reports whether back was taken;
// it is left alone, and the assembly allocates and copies as with a nil
// back, when it is not a clone of src, was taken before, or src inherits
// nothing.
func NewManifestAssembler(blob []byte, src *SpanSource, back *BackBuffer) (*ManifestAssembler, error) {
	man, err := ParseManifest(blob)
	if err != nil {
		return nil, err
	}
	inherits := src != nil && src.layout.equal(man.Layout)
	var target nn.Snapshot
	if inherits && back != nil && back.of == src {
		target, back.weights = back.weights, nil
	}
	asm, err := NewChunkAssembler(man.Header, target)
	if err != nil {
		return nil, err
	}
	a := &ManifestAssembler{
		man: man, asm: asm,
		covered: make([]bool, man.Layout.NumChunks),
		inPlace: target != nil,
	}
	if inherits {
		for i, h := range man.Hashes {
			if h != src.hashes[i] {
				continue
			}
			if a.inPlace {
				asm.mark(i)
			} else {
				asm.inherit(i, src.weights)
			}
			a.covered[i] = true
			a.inherited++
		}
	}
	if err := a.addPacked(blob[man.Len:]); err != nil {
		return nil, err
	}
	return a, nil
}

// addPacked walks records packed back-to-back (a manifest-bearing
// blob's tail) and adds each.
func (a *ManifestAssembler) addPacked(tail []byte) error {
	stride := a.man.Layout.Precision.BytesPerElement()
	off := 0
	for off < len(tail) {
		if off+chunkRecHeaderLen > len(tail) {
			return fmt.Errorf("%w: truncated record after manifest", ErrCorruptChunk)
		}
		count := int(binary.LittleEndian.Uint32(tail[off+16:]))
		size := chunkRecOverhead + count*stride
		if count > a.man.Layout.ChunkElems || off+size > len(tail) {
			return fmt.Errorf("%w: record overruns manifest blob", ErrCorruptChunk)
		}
		if _, err := a.Add(tail[off : off+size]); err != nil {
			return err
		}
		off += size
	}
	return nil
}

// Inherited returns how many positions the span source covered without a
// record: copied from it, or already in place in its clone.
func (a *ManifestAssembler) Inherited() int { return a.inherited }

// InPlace reports whether the assembly is patching a back buffer.
func (a *ManifestAssembler) InPlace() bool { return a.inPlace }

// Add verifies and decodes one wire record and reports whether assembly is
// now complete. Only a record that verified is hashed, and the assembler
// keeps no reference to rec. A record that arrives while another goroutine
// is decoding the same chunk was not written and is not noted.
func (a *ManifestAssembler) Add(rec []byte) (complete bool, err error) {
	idx, wrote, done, err := a.asm.add(rec)
	if err == nil && wrote {
		a.cover(idx, HashChunkRecord(rec))
	}
	return done, err
}

// cover notes that the record hashing to h was decoded at position idx.
// covered is assigned, not only set: a record other than the manifest's
// landing on a covered position uncovers it, so MissingHashes and Source
// describe what the weights hold now.
func (a *ManifestAssembler) cover(idx int, h ChunkHash) {
	a.mu.Lock()
	a.covered[idx] = h == a.man.Hashes[idx]
	a.mu.Unlock()
}

// Source returns the finished assembly as a span source for the next
// manifest — the manifest's hashes over the assembled weights — or nil
// while chunks are outstanding or if any position holds a record other
// than the one the manifest names.
func (a *ManifestAssembler) Source() *SpanSource {
	if !a.asm.Complete() {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.covered {
		if !c {
			return nil
		}
	}
	return &SpanSource{layout: a.man.Layout, hashes: a.man.Hashes, weights: a.asm.ckpt.Weights}
}

// Complete reports whether every chunk has been assembled.
func (a *ManifestAssembler) Complete() bool { return a.asm.Complete() }

// MissingHashes returns the content hashes still outstanding — the
// need-list the receiver sends when the sender elided a chunk its span
// source does not hold at that position.
func (a *ManifestAssembler) MissingHashes() []ChunkHash {
	a.mu.Lock()
	defer a.mu.Unlock()
	var missing []ChunkHash
	for i, c := range a.covered {
		if !c {
			missing = append(missing, a.man.Hashes[i])
		}
	}
	return missing
}

// Checkpoint returns the reconciled checkpoint, or ErrIncompleteStream
// while chunks are outstanding.
func (a *ManifestAssembler) Checkpoint() (*Checkpoint, error) { return a.asm.Checkpoint() }

// ReconcileBlob decodes a manifest-bearing blob, pulling records the
// blob does not carry from cache (nil cache = the blob must be full).
// It returns the checkpoint and how many chunks came from the cache; a
// gap neither source covers is ErrMissingChunk. A cached record is
// checked and decoded like a wire one, but not hashed: its key is its hash.
func ReconcileBlob(ctx context.Context, blob []byte, cache *ChunkCache) (*Checkpoint, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	a, err := NewManifestAssembler(blob, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	reused := 0
	for i, h := range a.man.Hashes {
		if cache == nil || a.covered[i] {
			continue
		}
		rec, ok := cache.Get(h)
		if !ok {
			continue
		}
		// A cached record that does not verify is treated as absent.
		if idx, _, _, err := a.asm.add(rec); err == nil {
			a.cover(idx, h)
			reused++
		}
	}
	if !a.Complete() {
		missing := a.MissingHashes()
		return nil, reused, fmt.Errorf("%w: %d of %d chunks unavailable (first %s)",
			ErrMissingChunk, len(missing), a.man.Layout.NumChunks, missing[0])
	}
	ckpt, err := a.Checkpoint()
	if err != nil {
		return nil, reused, err
	}
	return ckpt, reused, nil
}
