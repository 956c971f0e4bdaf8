package chunkstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"

	"viper/internal/bufpool"
)

// On-disk layout.
//
// A store directory holds numbered segment files and one manifest log:
//
//	seg-00000000.vseg   "VSEG0001" | entry…
//	manifest.log        "VLOG0001" | entry…
//
// Every entry in either file uses the same self-delimiting envelope:
//
//	kind u8 | bodyLen u32 LE | body | crc u32 LE
//
// with the CRC (IEEE) covering kind, bodyLen, and body. A segment
// entry's body is the record's 16-byte key followed by the exact v2 wire
// record (VCHK…), so serving it back is an io.Copy of the record span
// with no re-encode, every read re-verifies the record's own checksum,
// and Open indexes the entry under the stored key without hashing it.
// The manifest log carries commit and retire records binding
// model/version to an ordered key list. Both files are append-only
// between compactions; a torn final write fails its CRC and is truncated
// away on Open.
//
// The keyed kind is one-way: a store that predates it reads a keyed
// entry as a garbage tail and truncates its segment there.
const (
	segMagic = "VSEG0001"
	logMagic = "VLOG0001"

	entryChunk  = 1 // segment: legacy — a verbatim v2 chunk record, indexed under its content hash; no longer written
	entryBlob   = 2 // segment: reserved — an older store's opaque payload; never written, dead bytes on scan
	entryCommit = 3 // manifest log: version commit record
	entryRetire = 4 // manifest log: version retire tombstone
	entryKeyed  = 5 // segment: key | verbatim v2 chunk record (the highest kind)

	entryHeaderLen = 1 + 4
	entryOverhead  = entryHeaderLen + 4

	// maxEntryBody rejects absurd lengths while scanning so a corrupt
	// length field cannot drive a giant allocation.
	maxEntryBody = 1 << 30
)

// scratch recycles buffers for entry assembly and compaction reads.
// Ownership is the pool's contract (bufpool; DESIGN.md §8): a buffer from
// getBuf or growBuf is its holder's, to hand back with putBuf at most once
// after its last read, or to let go. It is shared by every open store and
// dropped when the last of them closes (openStores), so a process that goes
// on without a store does not keep its high-water of entry buffers.
var scratch bufpool.Pool

// openStores counts the stores Open returned that are not closed yet.
var openStores atomic.Int64

// minScratch is the least capacity getBuf asks for, so a run of small
// entries of creeping sizes shares one buffer.
const minScratch = 64 << 10

// getBuf returns a zero-length scratch buffer with at least n capacity.
func getBuf(n int) []byte { return scratch.Get(max(n, minScratch))[:0] }

// growBuf returns a scratch buffer with at least n capacity, handing b
// back when it is too small: the caller holds the result, and no longer b.
func growBuf(b []byte, n int) []byte {
	if cap(b) >= n {
		return b
	}
	putBuf(b)
	return getBuf(n)
}

// putBuf hands a buffer acquired by getBuf back to the pool.
func putBuf(b []byte) { scratch.Put(b) }

// appendEntry appends one encoded envelope, whose body is the parts in
// order, to b and returns it.
func appendEntry(b []byte, kind byte, parts ...[]byte) []byte {
	start, n := len(b), 0
	for _, p := range parts {
		n += len(p)
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, p := range parts {
		b = append(b, p...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// scanEntries walks the envelope sequence of f starting after the
// 8-byte magic, calling fn with each entry's kind, body offset, and
// body (a scratch slice valid only for the call). It returns the byte
// offset just past the last valid entry; any tail beyond it failed
// validation (short read, bad CRC, bad kind) and should be truncated.
func scanEntries(f *os.File, size int64, fn func(kind byte, bodyOff int64, body []byte) error) (valid int64, err error) {
	off := int64(len(segMagic))
	var hdr [entryHeaderLen]byte
	scratch := getBuf(0)
	// growBuf may recycle scratch and hand back a replacement, so the
	// deferred put must read the variable at return time — a plain
	// `defer putBuf(scratch)` would capture the original buffer and
	// double-put it into the pool after a reallocation.
	defer func() { putBuf(scratch) }()
	for off < size {
		if _, rerr := f.ReadAt(hdr[:], off); rerr != nil {
			return off, nil // torn header
		}
		kind := hdr[0]
		n := int(binary.LittleEndian.Uint32(hdr[1:]))
		if kind == 0 || kind > entryKeyed || n > maxEntryBody {
			return off, nil // garbage tail
		}
		if off+int64(entryOverhead)+int64(n) > size {
			return off, nil // torn body
		}
		scratch = growBuf(scratch, n+4)
		buf := scratch[:n+4]
		if _, rerr := f.ReadAt(buf, off+entryHeaderLen); rerr != nil {
			return off, nil
		}
		crc := crc32.ChecksumIEEE(hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		if crc != binary.LittleEndian.Uint32(buf[n:]) {
			return off, nil // torn or corrupt entry
		}
		if err := fn(kind, off+entryHeaderLen, buf[:n]); err != nil {
			return off, err
		}
		off += int64(entryOverhead) + int64(n)
	}
	return off, nil
}

// segmentFile is one append-only chunk container.
type segmentFile struct {
	id   uint64
	path string
	f    *os.File
	// size is the append offset (current file length).
	size int64
	// total is the record bytes of every entry in the file, dead or live:
	// a chunk entry counts its record and not its key (append and recovery
	// alike), a reserved entry its body.
	total int64
	// live is the record bytes of entries referenced by at least one
	// retained version.
	live int64
	// dirty marks bytes written since the last fsync.
	dirty bool
	// pins counts the entries in the file that an unfinished Writer
	// appended or deduplicated against — they may belong to a version
	// still being assembled (possibly with no committed reference yet) —
	// plus the ReadChunk calls reading from the file right now. Reclaim
	// must not delete or compact the file until every such handle has
	// committed or aborted and every such read has returned.
	pins int
}

// segName renders a segment file name for an id.
func segName(id uint64) string { return fmt.Sprintf("seg-%08d.vseg", id) }
