package vformat

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"viper/internal/nn"
)

// Chunked checkpoint format (wire format v2, magic VPRC0002): the
// snapshot's tensors are flattened into one element stream and split
// into fixed-size chunks that are encoded independently — each chunk
// carries its own CRC and precision-converted payload, so a worker pool
// can encode (and the consumer decode) chunks concurrently, and a
// streaming sender can put chunk N on the wire while chunk N+1 is still
// being encoded. The serial monolithic encode/CRC/send path this
// replaces is the serialization-dominated checkpoint stall identified by
// Gossman et al.; the overlap is the Dryden et al. pipelining argument
// applied to checkpoint publication.
//
// Container layout (a "chunked blob" stores the stream back-to-back; on
// the wire each piece travels as its own frame):
//
//	header:  "VPRC0002" | precision u8 | chunkElems u32 | totalElems u64 |
//	         numChunks u32 | model str | version u64 | iteration u64 |
//	         loss f64 | tensorCount u32 |
//	         { name str | rank u32 | dims u64… } × tensorCount | crc u32
//	chunk i: "VCHK" | index u32 | startElem u64 | elemCount u32 |
//	         payload (elemCount × stride bytes) | crc u32
//
// The header CRC covers every preceding header byte; each chunk CRC
// covers the chunk record from its magic through its payload. Strings
// are u32-length-prefixed (see writeString/readString).

const (
	// chunkMagic is the v2 header magic.
	chunkMagic = "VPRC0002"
	// chunkRecMagic starts every chunk record.
	chunkRecMagic = "VCHK"
	// DefaultChunkBytes is the default chunk payload size (~256 KiB).
	DefaultChunkBytes = 256 << 10
	// chunkRecHeaderLen is magic + index + startElem + elemCount.
	chunkRecHeaderLen = 4 + 4 + 8 + 4
	// chunkRecOverhead is the non-payload size of one chunk record.
	chunkRecOverhead = chunkRecHeaderLen + 4 // + trailing CRC
)

// Chunk-pipeline sentinel errors.
var (
	// ErrCorruptChunk marks a chunk whose CRC or framing does not match
	// the stream's header (wire corruption, torn stream).
	ErrCorruptChunk = errors.New("vformat: corrupt chunk")
	// ErrIncompleteStream is returned when a chunked checkpoint is
	// finalized before every chunk arrived.
	ErrIncompleteStream = errors.New("vformat: incomplete chunk stream")
)

// ChunkOptions parameterize the chunk pipeline.
type ChunkOptions struct {
	// Precision is the on-wire element encoding (PrecFloat64 lossless).
	Precision Precision
	// ChunkBytes is the payload size per chunk (<=0 = DefaultChunkBytes).
	ChunkBytes int
	// Parallelism bounds the encode/decode worker pool (<=0 = GOMAXPROCS).
	Parallelism int
	// Base, when non-nil, is the previously published snapshot: an
	// element whose move from Base is within BaseEps encodes the Base
	// value instead, so chunks whose weights only drifted produce
	// byte-identical records across versions and content-addressed
	// dedup collapses them. Per-element error is bounded by BaseEps
	// (suppressed elements hold the last value that moved, they do not
	// accumulate drift). A Base whose structure does not match the
	// snapshot is ignored.
	Base nn.Snapshot
	// BaseEps is the suppression threshold used with Base (0 = exact
	// match only).
	BaseEps float64
	// Lineage, when non-nil, is the value the caller keeps beside Base and
	// passes with every encode against it: it lets Hashes inherit the hash
	// of each chunk this encode left untouched instead of hashing the
	// record again, and the encoder write into a blob the caller retired
	// rewriting only what moved (see BaseLineage). Without it every record
	// is hashed and written.
	Lineage *BaseLineage
}

// normalized returns opts with defaults applied, validating Precision.
func (o ChunkOptions) normalized() (ChunkOptions, error) {
	switch o.Precision {
	case PrecFloat64, PrecFloat32, PrecFloat16:
	default:
		return o, fmt.Errorf("vformat: unknown precision %d", o.Precision)
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// ChunkTensor is one tensor's entry in the chunk stream directory.
type ChunkTensor struct {
	// Name is the parameter name.
	Name string
	// Shape is the tensor shape.
	Shape []int
	// Elems is the element count (product of Shape).
	Elems int64
	// Start is the tensor's offset in the flattened element stream.
	Start int64
}

// ChunkLayout describes how a snapshot is split into chunks.
type ChunkLayout struct {
	// Precision is the payload element encoding.
	Precision Precision
	// ChunkElems is the element count per chunk (the last chunk may be
	// shorter).
	ChunkElems int
	// TotalElems is the flattened element count.
	TotalElems int64
	// NumChunks is the chunk count: ceil(TotalElems / ChunkElems).
	NumChunks int
	// Tensors is the directory, in snapshot order.
	Tensors []ChunkTensor
}

// Fits reports whether s has one array per tensor of the directory, each
// of that tensor's length: the shape of a snapshot decoded under l. A nil s
// fits nothing.
func (l *ChunkLayout) Fits(s nn.Snapshot) bool {
	if s == nil || len(s) != len(l.Tensors) {
		return false
	}
	for i, t := range l.Tensors {
		if int64(len(s[i].Data)) != t.Elems {
			return false
		}
	}
	return true
}

// planLayout computes the chunk layout for a snapshot.
func planLayout(weights nn.Snapshot, opts ChunkOptions) *ChunkLayout {
	l := &ChunkLayout{Precision: opts.Precision, Tensors: make([]ChunkTensor, len(weights))}
	var off int64
	for i, nt := range weights {
		l.Tensors[i] = ChunkTensor{Name: nt.Name, Shape: nt.Shape, Elems: int64(len(nt.Data)), Start: off}
		off += int64(len(nt.Data))
	}
	l.TotalElems = off
	stride := opts.Precision.BytesPerElement()
	l.ChunkElems = opts.ChunkBytes / stride
	if l.ChunkElems < 1 {
		l.ChunkElems = 1
	}
	l.NumChunks = int((l.TotalElems + int64(l.ChunkElems) - 1) / int64(l.ChunkElems))
	return l
}

// chunkSpan returns chunk idx's element range [start, start+count).
func (l *ChunkLayout) chunkSpan(idx int) (start int64, count int) {
	start = int64(idx) * int64(l.ChunkElems)
	n := l.TotalElems - start
	if n > int64(l.ChunkElems) {
		n = int64(l.ChunkElems)
	}
	return start, int(n)
}

// recordSize returns the encoded size of chunk idx's record.
func (l *ChunkLayout) recordSize(idx int) int {
	_, count := l.chunkSpan(idx)
	return chunkRecOverhead + count*l.Precision.BytesPerElement()
}

// EncodedSize returns the exact size of the chunked blob (header +
// every chunk record) for a header of headerLen bytes.
func (l *ChunkLayout) encodedSize(headerLen int) int {
	size := headerLen
	if l.NumChunks > 0 {
		full := chunkRecOverhead + l.ChunkElems*l.Precision.BytesPerElement()
		size += (l.NumChunks - 1) * full      // all but the last are full...
		size += l.recordSize(l.NumChunks - 1) // ...which may be shorter
	}
	return size
}

// tensorAt returns the index of the tensor containing flat element pos.
func (l *ChunkLayout) tensorAt(pos int64) int {
	i := sort.Search(len(l.Tensors), func(i int) bool {
		return l.Tensors[i].Start+l.Tensors[i].Elems > pos
	})
	return i
}

// walkChunk calls fn for each tensor sub-span chunk idx covers, in
// stream order: elements [lo, lo+n) of tensor ti.
func (l *ChunkLayout) walkChunk(idx int, fn func(ti int, lo, n int64)) {
	pos, count := l.chunkSpan(idx)
	end := pos + int64(count)
	ti := l.tensorAt(pos)
	for pos < end {
		t := &l.Tensors[ti]
		lo := pos - t.Start
		if lo >= t.Elems { // zero-length or exhausted tensor
			ti++
			continue
		}
		n := t.Elems - lo
		if n > end-pos {
			n = end - pos
		}
		fn(ti, lo, n)
		pos += n
		ti++
	}
}

// equal reports whether o splits the same tensor directory into the same
// chunks at the same precision — the condition under which a record of
// one layout is a record of the other, index for index.
func (l *ChunkLayout) equal(o *ChunkLayout) bool {
	if l == o {
		return true
	}
	if l.Precision != o.Precision || l.ChunkElems != o.ChunkElems ||
		l.TotalElems != o.TotalElems || len(l.Tensors) != len(o.Tensors) {
		return false
	}
	for i := range l.Tensors {
		a, b := &l.Tensors[i], &o.Tensors[i]
		if a.Name != b.Name || a.Elems != b.Elems || !slices.Equal(a.Shape, b.Shape) {
			return false
		}
	}
	return true
}

// putElems encodes vals into dst at precision p (len(dst) must be
// len(vals) × stride).
func putElems(dst []byte, p Precision, vals []float64) {
	switch p {
	case PrecFloat32:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
	case PrecFloat16:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(dst[2*i:], Float16FromFloat64(v))
		}
	default:
		putFloat64s(dst, vals)
	}
}

// nativeLE holds on a host that lays a float64 out as a record does
// (little-endian): an fp64 record body is then the weights' own bytes.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes views vals' array as its bytes. Never view a record body as
// []float64 instead: it starts 20 bytes into the record, not 8-aligned.
func float64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// putFloat64s writes vals into dst as little-endian float64s.
func putFloat64s(dst []byte, vals []float64) {
	if nativeLE {
		copy(dst, float64Bytes(vals))
		return
	}
	putFloat64sLoop(dst, vals)
}

// putFloat64sLoop is putFloat64s on any host, element by element.
func putFloat64sLoop(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// getFloat64s reads len(dst) little-endian float64s from src into dst.
func getFloat64s(dst []float64, src []byte) {
	if nativeLE {
		copy(float64Bytes(dst), src)
		return
	}
	getFloat64sLoop(dst, src)
}

// getFloat64sLoop is getFloat64s on any host, element by element.
func getFloat64sLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// putElemsBase encodes vals into dst at precision p with dedup
// suppression against base (the per-element wire values of the
// previous version): an element within eps of its base re-encodes the
// base value — byte-identical to last time — while an element that
// moved updates base to its decoded wire value and encodes that. base
// is mutated in place so the caller can hand the same snapshot to the
// next version's encode and keep comparisons aligned with what
// consumers actually hold (error stays bounded by eps, it does not
// accumulate). It reports whether any element moved: when none did, dst
// holds exactly what the previous encode against base wrote for the span.
func putElemsBase(dst []byte, p Precision, vals, base []float64, eps float64) (moved bool) {
	switch p {
	case PrecFloat32:
		for i, v := range vals {
			if moves(v, base[i], eps) {
				base[i] = float64(float32(v))
				moved = true
			}
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(base[i])))
		}
	case PrecFloat16:
		for i, v := range vals {
			if moves(v, base[i], eps) {
				base[i] = Float16ToFloat64(Float16FromFloat64(v))
				moved = true
			}
			binary.LittleEndian.PutUint16(dst[2*i:], Float16FromFloat64(base[i]))
		}
	default:
		for i, v := range vals {
			if moves(v, base[i], eps) {
				base[i] = v
				moved = true
			}
		}
		putFloat64s(dst, base[:len(vals)])
	}
	return moved
}

// moves is putElemsBase's movement test, the same at every precision: v
// moves its base b when they are further apart than eps (d > eps or
// d < -eps, one compare). A NaN on either side never moves.
func moves(v, b, eps float64) bool {
	return math.Abs(v-b) > eps
}

// anyMoves reports whether putElemsBase would move some element of vals
// off base, without writing anything.
func anyMoves(vals, base []float64, eps float64) bool {
	base = base[:len(vals)]
	for i, v := range vals {
		if moves(v, base[i], eps) {
			return true
		}
	}
	return false
}

// getElems decodes src at precision p into dst, re-expanding to float64.
func getElems(dst []float64, p Precision, src []byte) {
	switch p {
	case PrecFloat32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		}
	case PrecFloat16:
		for i := range dst {
			dst[i] = Float16ToFloat64(binary.LittleEndian.Uint16(src[2*i:]))
		}
	default:
		getFloat64s(dst, src)
	}
}

// encodeChunkInto writes chunk idx's full record into dst (whose length
// must be recordSize(idx)) in a single pass over the weights. A non-nil
// base enables dedup suppression (see putElemsBase); distinct chunks
// touch disjoint base spans, so concurrent workers are safe. It reports
// whether the chunk is dirty: encoded without a base, or some element of
// it moved.
func (l *ChunkLayout) encodeChunkInto(dst []byte, weights, base nn.Snapshot, eps float64, idx int) (dirty bool) {
	start, count := l.chunkSpan(idx)
	copy(dst, chunkRecMagic)
	binary.LittleEndian.PutUint32(dst[4:], uint32(idx))
	binary.LittleEndian.PutUint64(dst[8:], uint64(start))
	binary.LittleEndian.PutUint32(dst[16:], uint32(count))
	stride := l.Precision.BytesPerElement()
	off := chunkRecHeaderLen
	dirty = base == nil
	l.walkChunk(idx, func(ti int, lo, n int64) {
		out := dst[off : off+int(n)*stride]
		if base == nil {
			putElems(out, l.Precision, weights[ti].Data[lo:lo+n])
		} else if putElemsBase(out, l.Precision, weights[ti].Data[lo:lo+n], base[ti].Data[lo:lo+n], eps) {
			dirty = true
		}
		off += len(out)
	})
	binary.LittleEndian.PutUint32(dst[off:], crc32.ChecksumIEEE(dst[:off]))
	return dirty
}

// chunkMoves reports whether encodeChunkInto against base would find chunk
// idx dirty, reading weights and base only.
func (l *ChunkLayout) chunkMoves(weights, base nn.Snapshot, eps float64, idx int) (moved bool) {
	l.walkChunk(idx, func(ti int, lo, n int64) {
		moved = moved || anyMoves(weights[ti].Data[lo:lo+n], base[ti].Data[lo:lo+n], eps)
	})
	return moved
}

// verifyChunk checks rec against the layout — framing, index, span,
// length, CRC — and returns the chunk index it carries.
func (l *ChunkLayout) verifyChunk(rec []byte) (int, error) {
	if len(rec) < chunkRecOverhead || string(rec[:4]) != chunkRecMagic {
		return 0, fmt.Errorf("%w: bad record framing", ErrCorruptChunk)
	}
	idx := int(binary.LittleEndian.Uint32(rec[4:]))
	if idx < 0 || idx >= l.NumChunks {
		return 0, fmt.Errorf("%w: chunk index %d of %d", ErrCorruptChunk, idx, l.NumChunks)
	}
	start, count := l.chunkSpan(idx)
	if binary.LittleEndian.Uint64(rec[8:]) != uint64(start) ||
		binary.LittleEndian.Uint32(rec[16:]) != uint32(count) {
		return 0, fmt.Errorf("%w: chunk %d span mismatch", ErrCorruptChunk, idx)
	}
	stride := l.Precision.BytesPerElement()
	if len(rec) != chunkRecOverhead+count*stride {
		return 0, fmt.Errorf("%w: chunk %d is %d bytes, want %d",
			ErrCorruptChunk, idx, len(rec), chunkRecOverhead+count*stride)
	}
	body := len(rec) - 4
	if binary.LittleEndian.Uint32(rec[body:]) != crc32.ChecksumIEEE(rec[:body]) {
		return 0, fmt.Errorf("%w: chunk %d checksum mismatch", ErrCorruptChunk, idx)
	}
	return idx, nil
}

// decodeChunk decodes the payload of rec, a record verifyChunk passed as
// chunk idx, into the preallocated weights. Distinct chunks land in
// disjoint element ranges, so concurrent calls with different chunks are
// safe; two with the same chunk are not.
func (l *ChunkLayout) decodeChunk(weights nn.Snapshot, idx int, rec []byte) {
	stride := l.Precision.BytesPerElement()
	off := chunkRecHeaderLen
	l.walkChunk(idx, func(ti int, lo, n int64) {
		getElems(weights[ti].Data[lo:lo+n], l.Precision, rec[off:off+int(n)*stride])
		off += int(n) * stride
	})
}

// HashDecoded returns, by chunk index, the content hash of the record each
// chunk of weights (a snapshot l fits) encodes to: the record's hash, for
// weights decoded from it, whenever the encoder wrote it. A record is a
// pure function of the layout, the weights and its index, and decoding
// then encoding again gives back the record's bytes at every precision —
// fp64 is a copy, and fp32 and fp16 come back to the value they were cut
// to, NaNs included, since the encoder writes them quiet. A record crafted
// elsewhere (an fp32 signalling NaN, say) hashes differently once decoded.
// Each chunk is encoded into one pooled record-sized scratch buffer. A
// closed stop ends it between two records, and then it returns nil.
func (l *ChunkLayout) HashDecoded(weights nn.Snapshot, stop <-chan struct{}) []ChunkHash {
	hashes := make([]ChunkHash, l.NumChunks)
	scratch := blobs.Get(l.recordSize(0)) // the first chunk is the longest
	defer ReleaseBuffer(scratch)
	for idx := range hashes {
		select {
		case <-stop:
			return nil
		default:
		}
		rec := scratch[:l.recordSize(idx)]
		l.encodeChunkInto(rec, weights, nil, 0, idx)
		hashes[idx] = HashChunkRecord(rec)
	}
	return hashes
}

// encodeChunkHeader builds the v2 header bytes for ckpt under layout.
func encodeChunkHeader(c *Checkpoint, l *ChunkLayout) []byte {
	b := make([]byte, 0, 128+32*len(l.Tensors))
	b = append(b, chunkMagic...)
	b = append(b, byte(l.Precision))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.ChunkElems))
	b = binary.LittleEndian.AppendUint64(b, uint64(l.TotalElems))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.NumChunks))
	b = appendString(b, c.ModelName)
	b = binary.LittleEndian.AppendUint64(b, c.Version)
	b = binary.LittleEndian.AppendUint64(b, c.Iteration)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.TrainLoss))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(l.Tensors)))
	for _, t := range l.Tensors {
		b = appendString(b, t.Name)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Shape)))
		for _, d := range t.Shape {
			b = binary.LittleEndian.AppendUint64(b, uint64(d))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// appendString appends a u32-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// headerReader walks header bytes with bounds checks.
type headerReader struct {
	b   []byte
	off int
}

func (r *headerReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("%w: truncated header", ErrCorruptChunk)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

func (r *headerReader) u32() (uint32, error) {
	s, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (r *headerReader) u64() (uint64, error) {
	s, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s), nil
}

func (r *headerReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: implausible string length %d", ErrCorruptChunk, n)
	}
	s, err := r.take(int(n))
	return string(s), err
}

// ParseChunkHeader parses a v2 stream header, returning the layout, the
// checkpoint skeleton (metadata set; Weights lists every tensor's name
// and shape with nil Data — only a ChunkAssembler allocates the model),
// and the header's encoded length.
func ParseChunkHeader(b []byte) (*ChunkLayout, *Checkpoint, int, error) {
	if len(b) < len(chunkMagic) || string(b[:len(chunkMagic)]) != chunkMagic {
		return nil, nil, 0, fmt.Errorf("vformat: bad chunk-stream magic")
	}
	r := &headerReader{b: b, off: len(chunkMagic)}
	pb, err := r.take(1)
	if err != nil {
		return nil, nil, 0, err
	}
	l := &ChunkLayout{Precision: Precision(pb[0])}
	switch l.Precision {
	case PrecFloat64, PrecFloat32, PrecFloat16:
	default:
		return nil, nil, 0, fmt.Errorf("vformat: unknown precision byte %d", pb[0])
	}
	ce, err := r.u32()
	if err != nil {
		return nil, nil, 0, err
	}
	te, err := r.u64()
	if err != nil {
		return nil, nil, 0, err
	}
	nc, err := r.u32()
	if err != nil {
		return nil, nil, 0, err
	}
	l.ChunkElems, l.TotalElems, l.NumChunks = int(ce), int64(te), int(nc)
	if l.ChunkElems < 1 {
		return nil, nil, 0, fmt.Errorf("%w: zero chunk size", ErrCorruptChunk)
	}
	if want := (l.TotalElems + int64(l.ChunkElems) - 1) / int64(l.ChunkElems); want != int64(l.NumChunks) {
		return nil, nil, 0, fmt.Errorf("%w: %d chunks cannot cover %d elements at %d/chunk",
			ErrCorruptChunk, l.NumChunks, l.TotalElems, l.ChunkElems)
	}
	c := &Checkpoint{}
	if c.ModelName, err = r.str(); err != nil {
		return nil, nil, 0, err
	}
	if c.Version, err = r.u64(); err != nil {
		return nil, nil, 0, err
	}
	if c.Iteration, err = r.u64(); err != nil {
		return nil, nil, 0, err
	}
	lb, err := r.u64()
	if err != nil {
		return nil, nil, 0, err
	}
	c.TrainLoss = math.Float64frombits(lb)
	tc, err := r.u32()
	if err != nil {
		return nil, nil, 0, err
	}
	// A directory entry is at least a name length and a rank, so the bytes
	// left bound the count before it sizes the directory.
	if tc > 1<<20 || int(tc)*8 > len(b)-r.off {
		return nil, nil, 0, fmt.Errorf("%w: implausible tensor count %d", ErrCorruptChunk, tc)
	}
	l.Tensors = make([]ChunkTensor, tc)
	c.Weights = make(nn.Snapshot, tc)
	var off int64
	for i := range l.Tensors {
		name, err := r.str()
		if err != nil {
			return nil, nil, 0, err
		}
		rank, err := r.u32()
		if err != nil {
			return nil, nil, 0, err
		}
		if rank > 64 {
			return nil, nil, 0, fmt.Errorf("%w: implausible rank %d", ErrCorruptChunk, rank)
		}
		shape := make([]int, rank)
		elems := int64(1)
		for j := range shape {
			d, err := r.u64()
			if err != nil {
				return nil, nil, 0, err
			}
			shape[j] = int(d)
			elems *= int64(d)
		}
		if elems < 0 || elems > l.TotalElems {
			return nil, nil, 0, fmt.Errorf("%w: tensor %d claims %d elements of %d total",
				ErrCorruptChunk, i, elems, l.TotalElems)
		}
		l.Tensors[i] = ChunkTensor{Name: name, Shape: shape, Elems: elems, Start: off}
		c.Weights[i] = nn.NamedTensor{Name: name, Shape: shape}
		off += elems
	}
	if off != l.TotalElems {
		return nil, nil, 0, fmt.Errorf("%w: directory covers %d elements, header says %d",
			ErrCorruptChunk, off, l.TotalElems)
	}
	body := r.off
	sum, err := r.u32()
	if err != nil {
		return nil, nil, 0, err
	}
	if sum != crc32.ChecksumIEEE(b[:body]) {
		return nil, nil, 0, fmt.Errorf("%w: header checksum mismatch", ErrCorruptChunk)
	}
	return l, c, r.off, nil
}

// ChunkEncoder drives the producer side of the chunk pipeline: it plans
// the layout, then encodes every chunk with a bounded worker pool into
// one pool-backed blob, emitting records in index order as their prefix
// completes. While the emit callback blocks (a frame send, a PFS write),
// the workers keep encoding later chunks — chunk N is on the wire while
// chunk N+1 is converted — which is the overlap the monolithic
// encode-then-send path lacked.
type ChunkEncoder struct {
	ckpt   *Checkpoint
	opts   ChunkOptions
	layout *ChunkLayout
	header []byte
	blob   []byte      // header + records, drawn from the pool or the lineage
	offs   []int       // record offsets within blob
	hashes []ChunkHash // nil until the first Hashes call
	done   bool
	// Hash inheritance (opts.Lineage): dirty[i] is set once chunk i was
	// encoded without a base or with an element that moved, and never
	// cleared, so a second EncodeStream pass cannot launder it; inherited
	// are the hashes EncodeStream took from the lineage under ticket gen;
	// hashed counts the records Hashes hashed itself.
	dirty     []bool
	inherited []ChunkHash
	gen       uint64
	hashed    int
	// Encoding in place (opts.Lineage): from is the ticket of the completed
	// encode that wrote blob when it is a retired blob the lineage handed
	// out (0: a pool blob). keep[i], set by EncodeStream from the lineage,
	// says record i already encodes the base's current values and is left
	// as it is unless chunk i moves now; encodeRecord clears it when it
	// rewrites the record. Nil: every record is written.
	from uint64
	keep []bool
}

// NewChunkEncoder plans the chunk layout for ckpt. With a lineage that
// holds a retired blob of this base and layout, the blob is that one and
// EncodeStream encodes into it in place (see BaseLineage.Retire); anything
// else draws from the pool.
func NewChunkEncoder(ckpt *Checkpoint, opts ChunkOptions) (*ChunkEncoder, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	if opts.Base != nil && !SameStructure(ckpt.Weights, opts.Base) {
		opts.Base = nil // restart or reshape: fall back to a clean full encode
	}
	layout := planLayout(ckpt.Weights, opts)
	header := encodeChunkHeader(ckpt, layout)
	size := layout.encodedSize(len(header))
	var blob []byte
	var from uint64
	if opts.Lineage != nil {
		blob, from = opts.Lineage.draw(opts.Base, layout, size)
	}
	if blob == nil {
		blob = blobs.Get(size)
	}
	copy(blob, header)
	offs := make([]int, layout.NumChunks)
	off := len(header)
	for i := range offs {
		offs[i] = off
		off += layout.recordSize(i)
	}
	return &ChunkEncoder{
		ckpt: ckpt, opts: opts, layout: layout,
		header: blob[:len(header)], blob: blob, offs: offs,
		dirty: make([]bool, layout.NumChunks), from: from,
	}, nil
}

// SameStructure reports whether two snapshots share tensor names and
// element counts — the prerequisite for base-suppressed encoding (a
// restart or reshape falls back to a clean full encode).
func SameStructure(a, b nn.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Data) != len(b[i].Data) {
			return false
		}
	}
	return true
}

// Layout returns the planned chunk layout.
func (e *ChunkEncoder) Layout() *ChunkLayout { return e.layout }

// Header returns the encoded v2 header (valid until Release).
func (e *ChunkEncoder) Header() []byte { return e.header }

// NumChunks returns the number of data chunks.
func (e *ChunkEncoder) NumChunks() int { return e.layout.NumChunks }

// EncodedSize returns the total encoded size (header + every record) in
// bytes, known up front because the layout is fixed-size.
func (e *ChunkEncoder) EncodedSize() int { return len(e.blob) }

// record returns chunk idx's encoded record (valid after it is encoded).
func (e *ChunkEncoder) record(idx int) []byte {
	return e.blob[e.offs[idx] : e.offs[idx]+e.layout.recordSize(idx)]
}

// encodeRecord encodes chunk idx into its slot of the blob — or, in place,
// leaves a kept record as it is when no element of the chunk moves: its
// bytes and CRC are already what encodeChunkInto would write. Distinct
// chunks touch disjoint blob, base and keep slots, so workers run it
// concurrently.
func (e *ChunkEncoder) encodeRecord(idx int) {
	if e.keep != nil && e.keep[idx] {
		if !e.layout.chunkMoves(e.ckpt.Weights, e.opts.Base, e.opts.BaseEps, idx) {
			return
		}
		e.keep[idx] = false
	}
	if e.layout.encodeChunkInto(e.record(idx), e.ckpt.Weights, e.opts.Base, e.opts.BaseEps, idx) {
		e.dirty[idx] = true
	}
}

// EncodeStream encodes every chunk and calls emit(idx, record) in strict
// index order. The record slice aliases the encoder's blob: it is valid
// until Release, and emit must not retain it past that. An emit error
// stops further emission but the encode itself still completes (so
// Blob() stays usable for staging/PFS fallbacks) and the error is
// returned. Cancelling ctx aborts the encode, drains every worker before
// returning, and leaves the blob unusable. emit may be nil to encode the
// blob without streaming.
func (e *ChunkEncoder) EncodeStream(ctx context.Context, emit func(idx int, record []byte) error) error {
	if e.blob == nil {
		return errors.New("vformat: encoder already released")
	}
	e.done = false // until this pass completes: it may write over any record
	if l := e.opts.Lineage; l != nil {
		// Before the first element of the base can move: from here on the
		// lineage holds no hashes until Hashes refills it, and whatever this
		// pass moves — cancelled or not — is recorded when it returns.
		e.inherited, e.gen, e.keep = l.take(e.opts.Base, e.layout, e.blob, e.from)
		defer l.settle(e)
	}
	n := e.layout.NumChunks
	workers := e.opts.Parallelism
	if workers > n {
		workers = n
	}
	var emitErr error
	doEmit := func(idx int) {
		if emit != nil && emitErr == nil {
			emitErr = emit(idx, e.record(idx))
		}
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, just ordered encode+emit with
		// cancellation checks between chunks.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.encodeRecord(i)
			doEmit(i)
		}
		e.done = true
		return emitErr
	}
	jobs := make(chan int)
	completions := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil {
					continue // drain remaining jobs without encoding
				}
				e.encodeRecord(idx)
				completions <- idx // buffered to n: never blocks
			}
		}()
	}
	ready := make([]bool, n)
	sent, next := 0, 0
	cancelled := false
	handle := func(idx int) {
		ready[idx] = true
		for next < n && ready[next] {
			doEmit(next)
			next++
		}
	}
	for next < n && !cancelled {
		if sent < n {
			select {
			case jobs <- sent:
				sent++
			case idx := <-completions:
				handle(idx)
			case <-ctx.Done():
				cancelled = true
			}
		} else {
			select {
			case idx := <-completions:
				handle(idx)
			case <-ctx.Done():
				cancelled = true
			}
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	e.done = true
	return emitErr
}

// Hashes returns the per-chunk content hashes (index order) after a
// successful EncodeStream; unlike records they do not alias the blob
// and stay valid past Release. Encoding never hashes: the first call
// hashes on the encoder's worker pool — so a publish nobody plans a
// delta for pays no SHA-256 pass — and must therefore come before Release
// or Detach. With ChunkOptions.Lineage it hashes only the records of
// dirty chunks and inherits the rest from the previous encode against the
// same base, then leaves the result in the lineage for the next one. Not
// safe for concurrent use.
func (e *ChunkEncoder) Hashes() ([]ChunkHash, error) {
	if !e.done {
		return nil, ErrIncompleteStream
	}
	if e.hashes != nil {
		return e.hashes, nil
	}
	if e.blob == nil {
		return nil, errors.New("vformat: encoder already released")
	}
	n := e.layout.NumChunks
	hashes := make([]ChunkHash, n)
	recs := make([][]byte, n)
	for i := range recs {
		if e.inherited != nil && !e.dirty[i] {
			hashes[i] = e.inherited[i]
		} else {
			recs[i] = e.record(i)
			e.hashed++
		}
	}
	hashRecords(hashes, recs, e.opts.Parallelism)
	e.hashes = hashes
	if e.opts.Lineage != nil && e.opts.Base != nil {
		e.opts.Lineage.put(e.gen, hashes)
	}
	return hashes, nil
}

// HashedRecords returns how many records Hashes hashed itself; it
// inherited the others (0 before Hashes).
func (e *ChunkEncoder) HashedRecords() int { return e.hashed }

// InPlace reports whether EncodeStream encoded into a retired blob the
// lineage vouched for, rewriting only what moved since it was written.
func (e *ChunkEncoder) InPlace() bool { return e.keep != nil }

// ReusedRecords returns how many records a successful in-place encode left
// as they were (0 for any other encode).
func (e *ChunkEncoder) ReusedRecords() int {
	if !e.done {
		return 0
	}
	n := 0
	for _, k := range e.keep {
		if k {
			n++
		}
	}
	return n
}

// hashRecords fills hashes[i] with the content hash of every non-nil
// recs[i], on up to workers goroutines (the caller is one of them).
func hashRecords(hashes []ChunkHash, recs [][]byte, workers int) {
	if workers > len(recs) {
		workers = len(recs)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(recs); i = int(next.Add(1)) - 1 {
			if recs[i] != nil {
				hashes[i] = HashChunkRecord(recs[i])
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// BaseLineage carries what one encode against a Base knows to the next
// encode against it. A chunk none of whose elements moved re-encodes the
// base's values — the very bytes every earlier encode against that base
// wrote for it since the chunk last moved — so the next encode neither
// hashes its record again (Hashes inherits the previous encode's hash) nor,
// given a blob such an encode wrote, writes it again (Retire). The caller
// keeps one BaseLineage beside each base snapshot it keeps and passes both
// with every encode against that base (ChunkOptions.Base,
// ChunkOptions.Lineage); the zero value is ready.
//
// Beyond that pairing, validity does not rest on the caller. The lineage
// hands out a ticket to every EncodeStream pass before it touches the base,
// and records per chunk the ticket of the last pass that moved it —
// cancelled and failed passes included, since the encoder's dirty bits are
// exact per chunk whatever stops it. Hashes are taken out by that pass and
// only its Hashes call puts a set back, and only if no other pass has begun
// since, so a pass that was cancelled, failed or never asked for hashes
// leaves none to inherit. A blob is bound to the ticket of the completed
// pass that wrote it. Both are bound to the base's backing arrays and the
// chunk layout: a pass against a base that was replaced (even by an equal
// clone), a reshaped tensor, another precision or chunk size starts the
// lineage over, and nothing from before is inherited or drawn. Not safe for
// concurrent use — encodes against one base mutate it and are sequential
// anyway.
type BaseLineage struct {
	gen uint64 // bumped by every take: put honours only the latest ticket
	// The base arrays and layout of every pass since ticket epoch; moved is
	// per chunk the ticket of the last of them that moved it (0: none).
	base   nn.Snapshot
	layout *ChunkLayout
	epoch  uint64
	moved  []uint64
	hashes []ChunkHash // every record's, as pass gen wrote them
	// wrote lists blobs completed passes since epoch wrote, by first byte,
	// oldest first; retired is the blob Retire accepted, written by pass
	// retiredGen, until the next NewChunkEncoder draws it.
	wrote      [4]writtenBlob
	retired    []byte
	retiredGen uint64
}

// writtenBlob is a blob a completed pass wrote.
type writtenBlob struct {
	at  *byte
	gen uint64
}

// Retire hands the lineage a blob that an encode against it completed,
// once nothing reads it any more: the caller gives up the blob exactly as
// with ReleaseBuffer. The next NewChunkEncoder with this lineage encodes
// into it in place — every record of a chunk that moved since the blob was
// written, or moves now, is rewritten, every other record and its CRC left
// as they are — provided the blob still belongs to the base and layout of
// that encode. Anything else goes to the pool: a blob no completed pass of
// the current base and layout wrote, the older of two retired blobs, and a
// retired blob the next encoder does not draw.
func (l *BaseLineage) Retire(blob []byte) {
	gen, ok := l.written(blob)
	switch {
	case !ok:
	case l.retired == nil:
		l.retired, l.retiredGen = blob, gen
		return
	case l.retiredGen < gen:
		l.retired, blob, l.retiredGen = blob, l.retired, gen
	}
	ReleaseBuffer(blob)
}

// written removes blob from the completed writes and returns the ticket of
// the pass that wrote it.
func (l *BaseLineage) written(blob []byte) (uint64, bool) {
	if len(blob) == 0 {
		return 0, false
	}
	for i, w := range l.wrote {
		if w.at == &blob[0] {
			l.wrote[i] = writtenBlob{}
			return w.gen, true
		}
	}
	return 0, false
}

// draw hands out the retired blob when it is size bytes written against
// base under layout, with the ticket of the pass that wrote it; otherwise it
// returns any retired blob to the pool and nil.
func (l *BaseLineage) draw(base nn.Snapshot, layout *ChunkLayout, size int) ([]byte, uint64) {
	blob, gen := l.retired, l.retiredGen
	l.retired = nil
	if blob == nil {
		return nil, 0
	}
	if base == nil || !l.tracks(base, layout) || len(blob) != size {
		ReleaseBuffer(blob)
		return nil, 0
	}
	return blob, gen
}

// tracks reports whether the lineage is about encodes against base under
// layout.
func (l *BaseLineage) tracks(base nn.Snapshot, layout *ChunkLayout) bool {
	return l.layout != nil && sameArrays(l.base, base) && l.layout.equal(layout)
}

// take hands a pass about to write blob its ticket, with the hashes of the
// pass before it when that one hashed this base under an equal layout, and
// — when blob was written by pass from of the current base and layout —
// which records still encode the base's values. A pass against another base
// or layout starts the lineage over.
func (l *BaseLineage) take(base nn.Snapshot, layout *ChunkLayout, blob []byte, from uint64) (hashes []ChunkHash, gen uint64, keep []bool) {
	hashes, l.hashes = l.hashes, nil
	l.gen++
	l.written(blob) // about to be written over: no longer a completed write
	if base == nil {
		return nil, l.gen, nil // moves nothing, and its blob is bound to nothing
	}
	if !l.tracks(base, layout) {
		ReleaseBuffer(l.retired)
		*l = BaseLineage{gen: l.gen, base: base, layout: layout, epoch: l.gen, moved: make([]uint64, layout.NumChunks)}
		return nil, l.gen, nil
	}
	if from >= l.epoch {
		keep = make([]bool, len(l.moved))
		for i, m := range l.moved {
			keep[i] = m <= from
		}
	}
	return hashes, l.gen, keep
}

// settle records what e's pass moved, and its blob once the encode is
// complete.
func (l *BaseLineage) settle(e *ChunkEncoder) {
	if e.opts.Base == nil || !l.tracks(e.opts.Base, e.layout) {
		return
	}
	for i, d := range e.dirty {
		if d {
			l.moved[i] = e.gen
		}
	}
	if e.done {
		copy(l.wrote[:], l.wrote[1:])
		l.wrote[len(l.wrote)-1] = writtenBlob{&e.blob[0], e.gen}
	}
}

// put records hashes as those of the pass that took ticket gen, unless a
// later pass has begun — the base has moved on from these records.
func (l *BaseLineage) put(gen uint64, hashes []ChunkHash) {
	if gen == l.gen {
		l.hashes = hashes
	}
}

// sameArrays reports whether a and b are the same tensors in memory, not
// merely equal ones.
func sameArrays(a, b nn.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].Data, b[i].Data
		if len(x) != len(y) || (len(x) > 0 && &x[0] != &y[0]) {
			return false
		}
	}
	return true
}

// Blob returns the complete chunked container (header + every record)
// after a successful EncodeStream. It is pool-owned: valid until Release.
func (e *ChunkEncoder) Blob() ([]byte, error) {
	if e.blob == nil {
		return nil, errors.New("vformat: encoder already released")
	}
	if !e.done {
		return nil, ErrIncompleteStream
	}
	return e.blob, nil
}

// Detach hands the complete blob to the caller, who now owns the pooled
// buffer (ReleaseBuffer it at most once, or let the GC have it). The
// encoder is left released: a later Release is a no-op, Header and
// emitted records stay valid exactly as long as the caller keeps the
// blob.
func (e *ChunkEncoder) Detach() ([]byte, error) {
	blob, err := e.Blob()
	if err != nil {
		return nil, err
	}
	e.blob, e.header = nil, nil
	return blob, nil
}

// Release returns the encoder's blob to the buffer pool. The header,
// blob, and every emitted record become invalid.
func (e *ChunkEncoder) Release() {
	if e.blob != nil {
		ReleaseBuffer(e.blob)
		e.blob, e.header = nil, nil
	}
}

// EncodeChunked encodes ckpt as one chunked blob using a bounded worker
// pool. The returned buffer is pool-owned: hand it back via
// ReleaseBuffer when done, or keep it and let the GC have it.
func EncodeChunked(ctx context.Context, ckpt *Checkpoint, opts ChunkOptions) ([]byte, error) {
	enc, err := NewChunkEncoder(ckpt, opts)
	if err != nil {
		return nil, err
	}
	defer enc.Release() // a no-op once Detach has handed the blob over
	if err := enc.EncodeStream(ctx, nil); err != nil {
		return nil, err
	}
	return enc.Detach()
}

// ChunkAssembler is the consumer side of the pipeline: seeded with the
// stream header, it accepts chunk records in any order (concurrently —
// distinct chunks write disjoint element ranges), verifies each CRC, and
// decodes straight into the preallocated snapshot, so a model update is
// assembled while later chunks are still on the wire. A duplicate chunk
// (e.g. resent after a link reconnect) counts once, and the later copy is
// the one the weights hold (a ManifestAssembler relies on it: the record
// that answers a need-list replaces a stale one). One that arrives while
// another goroutine is still decoding the same chunk is dropped, so two
// writers never share a span.
type ChunkAssembler struct {
	layout    *ChunkLayout
	ckpt      *Checkpoint
	headerLen int

	mu        sync.Mutex
	got       []bool
	writing   []bool // a decode into the chunk's span is in flight
	remaining int
}

// NewChunkAssembler parses the v2 stream header and seeds the assembly
// target. A nil target is allocated — the one place a header parse leads to
// a model-sized allocation. Otherwise the records are decoded into target's
// arrays: a snapshot nobody else reads or writes until the assembly is
// complete, which the header's layout must fit (ChunkLayout.Fits). Whatever
// the arrays hold stays at every position until a record is decoded over it
// (or, under a ManifestAssembler, it is marked as already in place), so
// only a complete assembly says anything about their contents.
func NewChunkAssembler(header []byte, target nn.Snapshot) (*ChunkAssembler, error) {
	layout, ckpt, headerLen, err := ParseChunkHeader(header)
	if err != nil {
		return nil, err
	}
	if target != nil && !layout.Fits(target) {
		return nil, fmt.Errorf("vformat: the target's %d tensors do not fit the header's %d", len(target), len(layout.Tensors))
	}
	for i := range ckpt.Weights {
		if target == nil {
			ckpt.Weights[i].Data = make([]float64, layout.Tensors[i].Elems)
		} else {
			ckpt.Weights[i].Data = target[i].Data
		}
	}
	return &ChunkAssembler{
		layout: layout, ckpt: ckpt, headerLen: headerLen,
		got: make([]bool, layout.NumChunks), writing: make([]bool, layout.NumChunks),
		remaining: layout.NumChunks,
	}, nil
}

// Layout returns the stream's chunk layout.
func (a *ChunkAssembler) Layout() *ChunkLayout { return a.layout }

// Add verifies and decodes one chunk record, reporting whether the
// stream is now complete. Records may arrive in any order and from
// concurrent goroutines; duplicates are ignored.
func (a *ChunkAssembler) Add(rec []byte) (complete bool, err error) {
	_, _, complete, err = a.add(rec)
	return complete, err
}

// add is Add that also returns the index the record carries and whether
// this call decoded it. The index is claimed under a.mu before the span is
// touched: a record whose chunk another goroutine is decoding right now is
// not written.
func (a *ChunkAssembler) add(rec []byte) (idx int, wrote, complete bool, err error) {
	idx, err = a.layout.verifyChunk(rec)
	if err != nil {
		return 0, false, false, err
	}
	a.mu.Lock()
	if a.writing[idx] {
		complete = a.remaining == 0
		a.mu.Unlock()
		return idx, false, complete, nil
	}
	a.writing[idx] = true
	a.mu.Unlock()
	a.layout.decodeChunk(a.ckpt.Weights, idx, rec)
	return idx, true, a.mark(idx), nil
}

// inherit fills chunk idx by copying its element span from src, a
// snapshot decoded under an equal layout, instead of decoding a record.
func (a *ChunkAssembler) inherit(idx int, src nn.Snapshot) {
	a.layout.walkChunk(idx, func(ti int, lo, n int64) {
		copy(a.ckpt.Weights[ti].Data[lo:lo+n], src[ti].Data[lo:lo+n])
	})
	a.mark(idx)
}

// mark records chunk idx as assembled, its span as no longer being
// written, and reports whether all chunks are.
func (a *ChunkAssembler) mark(idx int) (complete bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.writing[idx] = false
	if !a.got[idx] {
		a.got[idx] = true
		a.remaining--
	}
	return a.remaining == 0
}

// Complete reports whether every chunk has been assembled.
func (a *ChunkAssembler) Complete() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.remaining == 0
}

// Missing returns the number of chunks not yet assembled.
func (a *ChunkAssembler) Missing() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.remaining
}

// Checkpoint returns the assembled checkpoint, or ErrIncompleteStream if
// chunks are missing.
func (a *ChunkAssembler) Checkpoint() (*Checkpoint, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.remaining != 0 {
		return nil, fmt.Errorf("%w: %d of %d chunks missing",
			ErrIncompleteStream, a.remaining, a.layout.NumChunks)
	}
	return a.ckpt, nil
}

// splitRecords walks the chunk records packed after the header in a
// chunked blob, calling fn with each record slice.
func splitRecords(l *ChunkLayout, blob []byte, headerLen int, fn func(rec []byte) error) error {
	off := headerLen
	stride := l.Precision.BytesPerElement()
	for i := 0; i < l.NumChunks; i++ {
		if off+chunkRecHeaderLen > len(blob) {
			return fmt.Errorf("%w: blob truncated at chunk %d", ErrIncompleteStream, i)
		}
		count := int(binary.LittleEndian.Uint32(blob[off+16:]))
		size := chunkRecOverhead + count*stride
		if count > l.ChunkElems || off+size > len(blob) {
			return fmt.Errorf("%w: chunk %d record overruns blob", ErrCorruptChunk, i)
		}
		if err := fn(blob[off : off+size]); err != nil {
			return err
		}
		off += size
	}
	if off != len(blob) {
		return fmt.Errorf("%w: %d trailing bytes after last chunk", ErrCorruptChunk, len(blob)-off)
	}
	return nil
}

// DecodeChunked parses a chunked blob produced by EncodeChunked (or by
// concatenating a streamed header and its records), decoding chunks with
// a bounded worker pool. parallelism <= 0 selects GOMAXPROCS.
func DecodeChunked(ctx context.Context, blob []byte, parallelism int) (*Checkpoint, error) {
	asm, err := NewChunkAssembler(blob, nil)
	if err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism <= 1 || asm.layout.NumChunks <= 1 {
		err = splitRecords(asm.layout, blob, asm.headerLen, func(rec []byte) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			_, err := asm.Add(rec)
			return err
		})
		if err != nil {
			return nil, err
		}
		return asm.Checkpoint()
	}
	recs := make(chan []byte, parallelism)
	errc := make(chan error, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range recs {
				if ctx.Err() != nil {
					continue
				}
				if _, err := asm.Add(rec); err != nil {
					select {
					case errc <- err:
					default:
					}
				}
			}
		}()
	}
	feedErr := splitRecords(asm.layout, blob, asm.headerLen, func(rec []byte) error {
		select {
		case recs <- rec:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	close(recs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if feedErr != nil {
		return nil, feedErr
	}
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	return asm.Checkpoint()
}

// IsChunked reports whether blob starts with the v2 chunk-stream magic.
func IsChunked(blob []byte) bool {
	return len(blob) >= len(chunkMagic) && string(blob[:len(chunkMagic)]) == chunkMagic
}

// DecodeAuto decodes a self-contained checkpoint blob — lean v1 (VPRF,
// the simulator's baseline), chunked v2 (VPRC), or a manifest-bearing
// blob (VPRM) that carries its full record set — dispatching on the
// magic; anything else is rejected. A manifest-bearing blob missing
// records (a wire delta that needs the receiver's previous version) fails
// with ErrMissingChunk rather than decoding a torn checkpoint. The VPRM
// case is what keeps KV-staged recovery working when delta distribution
// is on: producers stage the full manifest-bearing blob and a consumer
// backfilling after a relay death full-decodes it here with nothing else.
func DecodeAuto(ctx context.Context, blob []byte, parallelism int) (*Checkpoint, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("vformat: blob too short (%d bytes)", len(blob))
	}
	switch string(blob[:8]) {
	case magic:
		return Decode(blob)
	case chunkMagic:
		return DecodeChunked(ctx, blob, parallelism)
	case manifestMagic:
		ckpt, _, err := ReconcileBlob(ctx, blob, nil)
		return ckpt, err
	default:
		return nil, fmt.Errorf("vformat: unknown checkpoint magic %q", blob[:8])
	}
}

// ChunkRecordInfo describes one chunk record inside a chunked blob (the
// per-chunk layout viper-inspect reports for v2 checkpoints).
type ChunkRecordInfo struct {
	// Index is the chunk index.
	Index int
	// Start is the first flattened element covered.
	Start int64
	// Elems is the element count.
	Elems int
	// Offset is the record's byte offset in the blob.
	Offset int
	// Size is the record's encoded size in bytes.
	Size int
	// CRCOK reports whether the record checksum verifies.
	CRCOK bool
}

// ChunkRecords parses a chunked blob's header and enumerates its chunk
// records without decoding payloads (beyond checksumming them).
func ChunkRecords(blob []byte) (*ChunkLayout, *Checkpoint, []ChunkRecordInfo, error) {
	layout, ckpt, headerLen, err := ParseChunkHeader(blob)
	if err != nil {
		return nil, nil, nil, err
	}
	var recs []ChunkRecordInfo
	off := headerLen
	err = splitRecords(layout, blob, headerLen, func(rec []byte) error {
		body := len(rec) - 4
		recs = append(recs, ChunkRecordInfo{
			Index:  int(binary.LittleEndian.Uint32(rec[4:])),
			Start:  int64(binary.LittleEndian.Uint64(rec[8:])),
			Elems:  int(binary.LittleEndian.Uint32(rec[16:])),
			Offset: off,
			Size:   len(rec),
			CRCOK:  binary.LittleEndian.Uint32(rec[body:]) == crc32.ChecksumIEEE(rec[:body]),
		})
		off += len(rec)
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return layout, ckpt, recs, nil
}

// VerifyChunkRecord reports whether rec is a well-framed chunk record
// with a matching trailing CRC32. It checks only record integrity, not
// membership in any particular stream — callers that cache or forward
// records without assembling them (e.g. the fan-out relay) use it to
// reject corrupt chunks without decoding payloads.
func VerifyChunkRecord(rec []byte) bool {
	if len(rec) < chunkRecOverhead || string(rec[:4]) != chunkRecMagic {
		return false
	}
	body := len(rec) - 4
	return binary.LittleEndian.Uint32(rec[body:]) == crc32.ChecksumIEEE(rec[:body])
}
