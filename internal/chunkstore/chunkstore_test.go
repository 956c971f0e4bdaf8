package chunkstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/simclock"
	"viper/internal/vformat"
)

// testCheckpoint builds a deterministic checkpoint whose content is
// fully determined by seed, so byte-identity across store round-trips
// is checkable.
func testCheckpoint(seed int64, elems int, version uint64) *vformat.Checkpoint {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, elems)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return &vformat.Checkpoint{
		ModelName: "storetest",
		Version:   version,
		Iteration: 100 * version,
		TrainLoss: 0.5,
		Weights: nn.Snapshot{
			{Name: "w", Shape: []int{elems}, Data: data},
		},
	}
}

// testBlob encodes a chunked v2 blob with small chunks so even modest
// checkpoints span many records.
func testBlob(t testing.TB, seed int64, elems int, version uint64) []byte {
	t.Helper()
	blob, err := vformat.EncodeChunked(context.Background(), testCheckpoint(seed, elems, version),
		vformat.ChunkOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatalf("EncodeChunked: %v", err)
	}
	return blob
}

func mustOpen(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	blob := testBlob(t, 1, 4096, 1)
	if err := s.PutBlob("m", 1, "m/v00000001", blob); err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	got, err := s.LoadVersion("m", 1)
	if err != nil {
		t.Fatalf("LoadVersion: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("round-trip mismatch: %d bytes in, %d out", len(blob), len(got))
	}
	// The reassembled blob must decode through the standard auto path.
	ckpt, err := vformat.DecodeAuto(context.Background(), got, 2)
	if err != nil {
		t.Fatalf("DecodeAuto: %v", err)
	}
	if ckpt.Version != uint64(1) || len(ckpt.Weights) != 1 {
		t.Fatalf("decoded checkpoint wrong: v%d, %d tensors", ckpt.Version, len(ckpt.Weights))
	}
	meta, ok := s.Meta("m", 1)
	if !ok || meta.Key != "m/v00000001" {
		t.Fatalf("Meta = %+v, ok=%v", meta, ok)
	}
	if _, err := s.LoadVersion("m", 99); err == nil {
		t.Fatal("LoadVersion of unknown version succeeded")
	}
}

// TestPutBlobRefusesUnchunked: every stored body is a self-verifying
// chunk record, so a v1 blob is refused with a typed error, writes
// nothing, and leaves the store usable.
func TestPutBlobRefusesUnchunked(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()

	v1, err := testCheckpoint(2, 512, 3).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := s.PutBlob("m", 3, "m/v00000003", v1); !errors.Is(err, ErrNotChunked) {
		t.Fatalf("PutBlob(v1 blob) = %v, want ErrNotChunked", err)
	}
	if st := s.Stats(); st.Versions != 0 || st.Chunks != 0 || st.LiveBytes+st.DeadBytes != 0 {
		t.Fatalf("refused blob left state behind: %+v", st)
	}
	if err := s.PutBlob("m", 3, "m/v00000003", testBlob(t, 2, 512, 3)); err != nil {
		t.Fatalf("PutBlob after refusal: %v", err)
	}
}

// TestReservedBlobEntriesOpenSafely opens a directory an older store
// wrote: an opaque-payload entry (kind 2) sits between two chunk
// entries, and the log holds its commit (flag bit 0) next to a chunked
// version's. Nothing is truncated, the chunked version loads bit for
// bit, the old version is dropped and counted, and the opaque bytes are
// dead weight that compaction reclaims.
func TestReservedBlobEntriesOpenSafely(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(t, 11, 256, 1) // two 1 KiB chunks
	_, _, headerLen, err := vformat.ParseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	var hashes []vformat.ChunkHash
	if err := vformat.WalkChunkRecords(blob, func(rec []byte) error {
		recs = append(recs, rec)
		hashes = append(hashes, vformat.HashChunkRecord(rec))
		return nil
	}); err != nil || len(recs) != 2 {
		t.Fatalf("want a two-record blob, got %d (err=%v)", len(recs), err)
	}
	opaque := bytes.Repeat([]byte("old monolithic payload "), 400) // outweighs both chunks
	seg := []byte(segMagic)
	seg = appendEntry(seg, entryChunk, recs[0])
	seg = appendEntry(seg, entryBlob, opaque)
	seg = appendEntry(seg, entryChunk, recs[1])
	oldCommit := encodeCommit("m", &versionRec{version: 1, key: "old",
		hashes: []vformat.ChunkHash{vformat.HashChunkRecord(opaque)}})
	oldCommit[2+len("m")+8] |= 1 // the reserved flag bit
	log := []byte(logMagic)
	log = appendEntry(log, entryCommit, oldCommit)
	log = appendEntry(log, entryCommit, encodeCommit("m", &versionRec{version: 2, key: "k2",
		header: blob[:headerLen], hashes: hashes}))
	for name, data := range map[string][]byte{segName(0): seg, "manifest.log": log} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Small segments: the next put rotates, so segment 0 stops being the
	// active one and becomes eligible for compaction.
	opts := Options{SegmentBytes: 2048}
	s := mustOpen(t, dir, opts)
	st := s.Stats()
	if st.TruncatedTails != 0 || st.DroppedVersions != 1 || st.Chunks != 2 {
		t.Fatalf("open stats = %+v, want no truncation, one dropped version, two chunks", st)
	}
	if fi, err := os.Stat(filepath.Join(dir, segName(0))); err != nil || fi.Size() != int64(len(seg)) {
		t.Fatalf("segment 0 is %v bytes (err=%v), want the %d written", fi, err, len(seg))
	}
	if st.DeadBytes != int64(len(opaque)) {
		t.Fatalf("DeadBytes = %d, want the %d opaque bytes", st.DeadBytes, len(opaque))
	}
	if vs := s.Versions("m"); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("Versions = %v, want [2]", vs)
	}
	if got, err := s.LoadVersion("m", 2); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("v2 not bit-identical after open (err=%v)", err)
	}
	if _, err := s.ReadChunk(vformat.HashChunkRecord(opaque), nil); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("reading the reserved entry: err = %v, want ErrMissingChunk (it must never be indexed)", err)
	}

	blob3 := testBlob(t, 12, 256, 3)
	if err := s.PutBlob("m", 3, "k3", blob3); err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	if st := s.Stats(); st.DeadBytes != 0 || st.ReclaimedBytes < int64(len(opaque)) {
		t.Fatalf("after compaction stats = %+v, want the opaque bytes reclaimed", st)
	}
	s.Close()
	s = mustOpen(t, dir, opts)
	defer s.Close()
	for vn, want := range map[uint64][]byte{2: blob, 3: blob3} {
		if got, err := s.LoadVersion("m", vn); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d not bit-identical after compaction and reopen (err=%v)", vn, err)
		}
	}
}

// otherKey is a record key unrelated to the record's bytes, unique per
// (tag, i).
func otherKey(tag string, i int) vformat.ChunkHash {
	var k vformat.ChunkHash
	copy(k[:], fmt.Sprintf("%s/%d", tag, i))
	return k
}

// records splits a chunked blob into its header and records.
func records(t testing.TB, blob []byte) (header []byte, recs [][]byte) {
	t.Helper()
	_, _, headerLen, err := vformat.ParseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	err = vformat.WalkChunkRecords(blob, func(rec []byte) error { recs = append(recs, rec); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return blob[:headerLen], recs
}

// putKeyed commits blob as model/version with every record appended
// under otherKey(tag, i), and returns the keys.
func putKeyed(t testing.TB, s *Store, model string, version uint64, tag string, blob []byte) []vformat.ChunkHash {
	t.Helper()
	header, recs := records(t, blob)
	keys := make([]vformat.ChunkHash, len(recs))
	w := s.Begin()
	for i, rec := range recs {
		keys[i] = otherKey(tag, i)
		if err := w.Append(keys[i], rec); err != nil {
			w.Abort()
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Commit(model, version, "k", header, keys); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return keys
}

// TestKeyedEntriesReopen: versions whose writers keyed their records by
// something other than content reopen whole — every version listed,
// loading bit for bit, every record read back by its key — with nothing
// truncated and no content hash indexed: Open takes each entry's key from
// the disk.
func TestKeyedEntriesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2048} // several segments
	s := mustOpen(t, dir, opts)
	blobs := map[uint64][]byte{1: testBlob(t, 60, 1024, 1), 2: testBlob(t, 61, 1024, 2)}
	keys := map[uint64][]vformat.ChunkHash{}
	for v, blob := range blobs {
		keys[v] = putKeyed(t, s, "m", v, fmt.Sprintf("v%d", v), blob)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, opts)
	defer s.Close()
	if st := s.Stats(); st.TruncatedTails != 0 || st.Versions != 2 || st.DeadBytes != 0 {
		t.Fatalf("reopen stats %+v, want both versions, nothing truncated and nothing dead", st)
	}
	for v, blob := range blobs {
		if got, err := s.LoadVersion("m", v); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("v%d after reopen: err %v, bit-identical %v", v, err, bytes.Equal(got, blob))
		}
		_, recs := records(t, blob)
		for i, k := range keys[v] {
			if got, err := s.ReadChunk(k, nil); err != nil || !bytes.Equal(got, recs[i]) {
				t.Fatalf("v%d record %d by its key: err %v", v, i, err)
			}
			if s.Contains(vformat.HashChunkRecord(recs[i])) {
				t.Fatalf("v%d record %d is indexed under its content hash too", v, i)
			}
		}
	}
}

// TestLegacyChunkEntriesIndexByContent opens a segment of kind-1 entries,
// which carry no key, written by hand as an older store wrote them: each
// is indexed under its record's content hash, counted live like a keyed
// entry's record, and the version they make loads bit for bit beside one
// written since — before and after a reopen.
func TestLegacyChunkEntriesIndexByContent(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(t, 62, 512, 1)
	header, recs := records(t, blob)
	seg := []byte(segMagic)
	var hashes []vformat.ChunkHash
	var live int64
	for _, rec := range recs {
		seg = appendEntry(seg, entryChunk, rec)
		hashes = append(hashes, vformat.HashChunkRecord(rec))
		live += int64(len(rec))
	}
	log := appendEntry([]byte(logMagic), entryCommit, encodeCommit("m", &versionRec{version: 1, key: "k", header: header, hashes: hashes}))
	for name, data := range map[string][]byte{segName(0): seg, "manifest.log": log} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := mustOpen(t, dir, Options{})
	if st := s.Stats(); st.TruncatedTails != 0 || st.Chunks != len(recs) || st.LiveBytes != live || st.DeadBytes != 0 {
		t.Fatalf("open stats %+v, want %d chunks, %d live bytes, nothing truncated or dead", st, len(recs), live)
	}
	for i, h := range hashes {
		if got, err := s.ReadChunk(h, nil); err != nil || !bytes.Equal(got, recs[i]) {
			t.Fatalf("legacy record %d by its content hash: err %v", i, err)
		}
	}
	blob2 := testBlob(t, 63, 512, 2)
	putKeyed(t, s, "m", 2, "v2", blob2)
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	for v, want := range map[uint64][]byte{1: blob, 2: blob2} {
		if got, err := s.LoadVersion("m", v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d beside the other kind after reopen: err %v", v, err)
		}
	}
}

// TestTornKeyedTailTruncated: a keyed entry cut short, one whose body is
// too short to hold a key, and one whose record fails its own checksum
// under a valid envelope are each a torn tail — truncated on Open, the
// committed version before it intact.
func TestTornKeyedTailTruncated(t *testing.T) {
	blob := testBlob(t, 64, 512, 1)
	_, recs := records(t, blob)
	key := otherKey("tail", 0)
	bad := append([]byte(nil), recs[0]...)
	bad[len(bad)/2] ^= 0xff
	whole := appendEntry(nil, entryKeyed, key[:], recs[0])
	for name, tail := range map[string][]byte{
		"cut short":                 whole[:len(whole)-7],
		"body shorter than a key":   appendEntry(nil, entryKeyed, key[:8]),
		"record fails its checksum": appendEntry(nil, entryKeyed, key[:], bad),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			putKeyed(t, s, "m", 1, "v1", blob)
			s.Close()
			path := filepath.Join(dir, segName(0))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s = mustOpen(t, dir, Options{})
			defer s.Close()
			if st := s.Stats(); st.TruncatedTails != 1 || st.Chunks != len(recs) {
				t.Fatalf("open stats %+v, want one truncated tail and v1's %d chunks", st, len(recs))
			}
			if after, err := os.Stat(path); err != nil || after.Size() != fi.Size() {
				t.Fatalf("segment is %v bytes after Open (err %v), want the %d before the tail", after.Size(), err, fi.Size())
			}
			if got, err := s.LoadVersion("m", 1); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("v1 after the truncation: err %v", err)
			}
		})
	}
}

// TestCompactionKeepsKeys: compacting a mostly-dead segment copies its
// live keyed entries forward under the keys they were appended with, so
// the surviving version reads back by them, and loads bit for bit, before
// and after a reopen.
func TestCompactionKeepsKeys(t *testing.T) {
	dir := t.TempDir()
	// 1 KiB records in 4 KiB segments: v1's one record and v2's two share
	// segment 0, and v3 rotates to segment 1.
	opts := Options{SegmentBytes: 4096}
	s := mustOpen(t, dir, opts)
	blob1, blob2, blob3 := testBlob(t, 65, 128, 1), testBlob(t, 66, 256, 2), testBlob(t, 67, 256, 3)
	keys1 := putKeyed(t, s, "m", 1, "v1", blob1)
	keys2 := putKeyed(t, s, "m", 2, "v2", blob2)
	putKeyed(t, s, "m", 3, "v3", blob3)
	if st := s.Stats(); st.Segments != 2 || len(keys1) != 1 || len(keys2) != 2 {
		t.Fatalf("set-up: %d segments, v1 %d records, v2 %d; want 2, 1, 2", st.Segments, len(keys1), len(keys2))
	}
	if err := s.Retire("m", 2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ReclaimedBytes == 0 || st.DeadBytes != 0 {
		t.Fatalf("stats %+v after retiring v2: segment 0 was not compacted", st)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("segment 0 survived its compaction (stat err %v)", err)
	}
	_, recs1 := records(t, blob1)
	check := func(s *Store, when string) {
		t.Helper()
		if got, err := s.ReadChunk(keys1[0], nil); err != nil || !bytes.Equal(got, recs1[0]) {
			t.Fatalf("%s: v1's record by its key: err %v", when, err)
		}
		if s.Contains(keys2[0]) || s.Contains(vformat.HashChunkRecord(recs1[0])) {
			t.Fatalf("%s: a retired key or a content hash is indexed", when)
		}
		for v, want := range map[uint64][]byte{1: blob1, 3: blob3} {
			if got, err := s.LoadVersion("m", v); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: v%d: err %v", when, v, err)
			}
		}
	}
	check(s, "after compaction")
	s.Close()
	s = mustOpen(t, dir, opts)
	defer s.Close()
	check(s, "after reopen")
}

func TestDedupAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	// Same content committed as two versions: all chunks dedup.
	blob := testBlob(t, 3, 4096, 1)
	if err := s.PutBlob("m", 1, "k1", blob); err != nil {
		t.Fatalf("PutBlob v1: %v", err)
	}
	before := s.Stats()
	if err := s.PutBlob("m", 2, "k2", blob); err != nil {
		t.Fatalf("PutBlob v2: %v", err)
	}
	after := s.Stats()
	if after.DedupedChunks == before.DedupedChunks {
		t.Fatal("second identical version deduplicated nothing")
	}
	if after.LiveBytes != before.LiveBytes {
		t.Fatalf("identical content grew live bytes: %d -> %d", before.LiveBytes, after.LiveBytes)
	}
	if got, err := s.LoadVersion("m", 2); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("v2 load mismatch (err=%v)", err)
	}
}

func TestReopenRecoversInventory(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	blobs := map[uint64][]byte{}
	for v := uint64(1); v <= 5; v++ {
		blobs[v] = testBlob(t, int64(v), 2048, v)
		if err := s.PutBlob("m", v, fmt.Sprintf("m/v%08d", v), blobs[v]); err != nil {
			t.Fatalf("PutBlob v%d: %v", v, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	vs := s2.Versions("m")
	if len(vs) != 5 {
		t.Fatalf("recovered %d versions, want 5: %v", len(vs), vs)
	}
	for v, want := range blobs {
		got, err := s2.LoadVersion("m", v)
		if err != nil {
			t.Fatalf("LoadVersion v%d after reopen: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d differs after reopen", v)
		}
	}
	if models := s2.Models(); len(models) != 1 || models[0] != "m" {
		t.Fatalf("Models = %v", models)
	}
}

func TestTornTailsTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	blob := testBlob(t, 4, 2048, 1)
	if err := s.PutBlob("m", 1, "k", blob); err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	s.Close()

	// Simulate a torn final write in both files: garbage that parses as
	// a plausible entry header but fails its CRC, plus a short tail.
	for _, name := range []string{"manifest.log", segName(0)} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if _, err := f.Write([]byte{entryChunk, 4, 0, 0, 0, 0xde, 0xad}); err != nil {
			t.Fatalf("append garbage: %v", err)
		}
		f.Close()
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.TruncatedTails < 2 {
		t.Fatalf("TruncatedTails = %d, want >= 2", st.TruncatedTails)
	}
	got, err := s2.LoadVersion("m", 1)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("v1 unreadable after torn-tail recovery (err=%v)", err)
	}
	// The store must keep accepting commits after truncation.
	if err := s2.PutBlob("m", 2, "k2", testBlob(t, 5, 2048, 2)); err != nil {
		t.Fatalf("PutBlob after recovery: %v", err)
	}
}

func TestRetentionMaxVersions(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Retention: Retention{MaxVersions: 3}})
	defer s.Close()
	for v := uint64(1); v <= 10; v++ {
		if err := s.PutBlob("m", v, "k", testBlob(t, int64(v), 1024, v)); err != nil {
			t.Fatalf("PutBlob v%d: %v", v, err)
		}
	}
	vs := s.Versions("m")
	if len(vs) != 3 || vs[0] != 8 || vs[2] != 10 {
		t.Fatalf("Versions = %v, want [8 9 10]", vs)
	}
	if _, err := s.LoadVersion("m", 1); err == nil {
		t.Fatal("retired version still loadable")
	}
	if st := s.Stats(); st.Retired != 7 {
		t.Fatalf("Retired = %d, want 7", st.Retired)
	}
}

func TestRetentionMaxAge(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtualManual()
	s := mustOpen(t, dir, Options{
		Retention: Retention{MaxAge: time.Hour},
		Clock:     clock,
	})
	defer s.Close()
	if err := s.PutBlob("m", 1, "k", testBlob(t, 10, 1024, 1)); err != nil {
		t.Fatalf("PutBlob v1: %v", err)
	}
	clock.Advance(2 * time.Hour)
	if err := s.PutBlob("m", 2, "k", testBlob(t, 11, 1024, 2)); err != nil {
		t.Fatalf("PutBlob v2: %v", err)
	}
	if vs := s.Versions("m"); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("Versions = %v, want [2]", vs)
	}
	// The newest version survives any age.
	clock.Advance(48 * time.Hour)
	if err := s.GC(); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if vs := s.Versions("m"); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("newest version evicted by age: %v", vs)
	}
}

func TestRetentionMaxBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Retention: Retention{MaxBytes: 1}})
	defer s.Close()
	for v := uint64(1); v <= 3; v++ {
		if err := s.PutBlob("m", v, "k", testBlob(t, int64(v), 1024, v)); err != nil {
			t.Fatalf("PutBlob v%d: %v", v, err)
		}
	}
	// Budget of one byte still keeps the newest version.
	if vs := s.Versions("m"); len(vs) != 1 || vs[0] != 3 {
		t.Fatalf("Versions = %v, want [3]", vs)
	}
}

// TestManifestBlobAcrossSegments commits a full version, then a
// manifest-bearing delta whose elided chunks resolve against chunks
// already on disk — spanning multiple segment files — and checks the
// reassembled blob is byte-identical to the full encoding and decodes
// through DecodeAuto.
func TestManifestBlobAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// 2 KiB segments with 1 KiB chunks: every couple of records rotates
	// the segment, so any version's chunks span many files.
	s := mustOpen(t, dir, Options{SegmentBytes: 2048})
	defer s.Close()

	full1 := testBlob(t, 20, 8192, 1)
	if err := s.PutBlob("m", 1, "k1", full1); err != nil {
		t.Fatalf("PutBlob v1: %v", err)
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("Segments = %d, want several (rotation broken?)", st.Segments)
	}

	// Version 2 shares most chunks with version 1 (same seed, a tweaked
	// tail) — encode it, then build the delta against what the store
	// already holds.
	ckpt2 := testCheckpoint(20, 8192, 2)
	ckpt2.Weights[0].Data[8191] = 42
	full2, err := vformat.EncodeChunked(context.Background(), ckpt2, vformat.ChunkOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatalf("EncodeChunked v2: %v", err)
	}
	delta, _, carried, elided, err := vformat.BuildManifestBlob(full2, s.Contains)
	if err != nil {
		t.Fatalf("BuildManifestBlob: %v", err)
	}
	if elided == 0 {
		t.Fatalf("delta elided nothing (carried=%d)", carried)
	}
	if err := s.PutBlob("m", 2, "k2", delta); err != nil {
		t.Fatalf("PutBlob delta: %v", err)
	}
	got, err := s.LoadVersion("m", 2)
	if err != nil {
		t.Fatalf("LoadVersion v2: %v", err)
	}
	if !bytes.Equal(got, full2) {
		t.Fatal("delta-committed version does not reassemble to the full blob")
	}
	ckpt, err := vformat.DecodeAuto(context.Background(), got, 2)
	if err != nil {
		t.Fatalf("DecodeAuto: %v", err)
	}
	if ckpt.Weights[0].Data[8191] != 42 {
		t.Fatal("decoded weights lost the v2 mutation")
	}

	// And the whole thing survives a restart.
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 2048})
	defer s2.Close()
	got2, err := s2.LoadVersion("m", 2)
	if err != nil || !bytes.Equal(got2, full2) {
		t.Fatalf("v2 differs after reopen (err=%v)", err)
	}
}

// PutBlob of a manifest delta whose elided chunks are NOT on disk must
// fail loudly instead of committing an unloadable version.
func TestManifestBlobMissingChunksRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	full := testBlob(t, 21, 4096, 1)
	hashes, err := vformat.ChunkHashesOf(full)
	if err != nil {
		t.Fatalf("ChunkHashesOf: %v", err)
	}
	drop := map[vformat.ChunkHash]bool{hashes[0]: true}
	delta, _, _, _, err := vformat.BuildManifestBlob(full, func(h vformat.ChunkHash) bool { return drop[h] })
	if err != nil {
		t.Fatalf("BuildManifestBlob: %v", err)
	}
	if err := s.PutBlob("m", 1, "k", delta); err == nil {
		t.Fatal("PutBlob committed a delta with unresolvable chunks")
	}
	if len(s.Versions("m")) != 0 {
		t.Fatal("partial version left in catalog")
	}
}

func TestGCReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 2048, Retention: Retention{MaxVersions: 1}})
	defer s.Close()
	for v := uint64(1); v <= 6; v++ {
		// Distinct content every version: retiring v leaves fully-dead
		// segments behind.
		if err := s.PutBlob("m", v, "k", testBlob(t, int64(100+v), 4096, v)); err != nil {
			t.Fatalf("PutBlob v%d: %v", v, err)
		}
	}
	st := s.Stats()
	if st.ReclaimedBytes == 0 {
		t.Fatal("GC reclaimed nothing despite retired versions")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if len(files) != st.Segments {
		t.Fatalf("disk has %d segments, store reports %d", len(files), st.Segments)
	}
	// The surviving version still loads.
	if _, err := s.LoadVersion("m", 6); err != nil {
		t.Fatalf("LoadVersion v6: %v", err)
	}
}

func TestRetire(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for v := uint64(1); v <= 3; v++ {
		if err := s.PutBlob("m", v, "k", testBlob(t, int64(v), 1024, v)); err != nil {
			t.Fatalf("PutBlob v%d: %v", v, err)
		}
	}
	if err := s.Retire("m", 2); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if vs := s.Versions("m"); len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("Versions = %v, want [1 3]", vs)
	}
	s.Close()
	// The tombstone is durable.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if vs := s2.Versions("m"); len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("after reopen Versions = %v, want [1 3]", vs)
	}
}

func TestChunkServeVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	blob := testBlob(t, 30, 2048, 1)
	if err := s.PutBlob("m", 1, "k", blob); err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	hashes, _ := vformat.ChunkHashesOf(blob)
	var want [][]byte
	if err := vformat.WalkChunkRecords(blob, func(rec []byte) error { want = append(want, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	rec, err := s.ReadChunk(hashes[0], nil)
	if err != nil || !bytes.Equal(rec, want[0]) {
		t.Fatalf("ReadChunk(nil buffer): err = %v, exact bytes = %v", err, bytes.Equal(rec, want[0]))
	}
	// A caller's buffer is filled in place when it is big enough and
	// replaced when it is not; either way the result is the exact record.
	buf := make([]byte, 0, len(want[1])+64)
	rec, err = s.ReadChunk(hashes[1], buf)
	if err != nil || !bytes.Equal(rec, want[1]) || &rec[0] != &buf[:1][0] {
		t.Fatalf("ReadChunk(roomy buffer): err = %v, exact = %v, in place = %v", err, bytes.Equal(rec, want[1]), err == nil && &rec[0] == &buf[:1][0])
	}
	if rec, err = s.ReadChunk(hashes[2], make([]byte, 8)); err != nil || !bytes.Equal(rec, want[2]) {
		t.Fatalf("ReadChunk(short buffer): err = %v, exact = %v", err, bytes.Equal(rec, want[2]))
	}
	if _, err := s.ReadChunk(vformat.ChunkHash{1}, nil); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("ReadChunk(unknown hash): err = %v, want ErrMissingChunk", err)
	}

	// Flip one payload byte on disk under the store's feet: the store
	// must refuse to serve the record rather than hand out corruption.
	s.mu.Lock()
	loc := s.index[hashes[0]]
	if _, err := loc.seg.f.WriteAt([]byte{0xff}, loc.off+int64(loc.size)/2); err != nil {
		s.mu.Unlock()
		t.Fatalf("corrupt write: %v", err)
	}
	s.mu.Unlock()
	if got, err := s.ReadChunk(hashes[0], nil); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("ReadChunk of a flipped record: %d bytes, err = %v; want none and ErrCorrupt", len(got), err)
	}
	if _, err := s.LoadVersion("m", 1); err == nil {
		t.Fatal("LoadVersion served a corrupt chunk")
	}
	if st := s.Stats(); st.CorruptChunks == 0 {
		t.Fatal("corruption not counted")
	}
	s.Close()
}

func TestFailedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	s.mu.Lock()
	s.failed = true
	s.mu.Unlock()
	if err := s.PutBlob("m", 1, "k", testBlob(t, 40, 1024, 1)); err == nil {
		t.Fatal("failed store accepted a write")
	}
}

// appendBlob appends every record of a chunked blob through w and
// returns the blob's header and ordered hash list, ready for Commit.
func appendBlob(t *testing.T, w *Writer, blob []byte) (header []byte, hashes []vformat.ChunkHash) {
	t.Helper()
	_, _, headerLen, err := vformat.ParseChunkHeader(blob)
	if err != nil {
		t.Fatalf("ParseChunkHeader: %v", err)
	}
	err = vformat.WalkChunkRecords(blob, func(rec []byte) error {
		h := vformat.HashChunkRecord(rec)
		hashes = append(hashes, h)
		return w.Append(h, rec)
	})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return blob[:headerLen], hashes
}

// TestInterleavedCommitKeepsPendingAppends is the multi-writer contract:
// pins are owned by the write handle, so a whole put (append, commit,
// retention, reclaim) landing inside another handle's append window
// leaves that handle's not-yet-referenced chunks alone. Before handles,
// Commit cleared one store-wide pin flag and writer A's Commit below
// failed with ErrMissingChunk — which is why the relay used to serialize
// every store write behind a mutex.
func TestInterleavedCommitKeepsPendingAppends(t *testing.T) {
	// 512-byte segments with 1 KiB chunks: every record rotates, so
	// writer A's pending chunks sit in sealed (reclaimable) segments.
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512, Retention: Retention{MaxVersions: 1}}
	s := mustOpen(t, dir, opts)

	// Writer A appends its chunks but has not committed yet.
	blobA := testBlob(t, 30, 2048, 1)
	wa := s.Begin()
	headerA, hashesA := appendBlob(t, wa, blobA)

	// Writer B's whole puts land inside A's window; the second retires
	// the first, so B's reclaim pass has dead segments to delete.
	blobB := testBlob(t, 31, 2048, 2)
	if err := s.PutBlob("b", 1, "kb1", testBlob(t, 32, 2048, 1)); err != nil {
		t.Fatalf("PutBlob b v1: %v", err)
	}
	if err := s.PutBlob("b", 2, "kb2", blobB); err != nil {
		t.Fatalf("PutBlob b v2: %v", err)
	}
	if st := s.Stats(); st.ReclaimedBytes == 0 {
		t.Fatalf("B's reclaim pass never ran (stats %+v): the window is not exercised", st)
	}

	if err := wa.Commit("a", 1, "ka", headerA, hashesA); err != nil {
		t.Fatalf("Commit after interleaved commits: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	for _, c := range []struct {
		model   string
		version uint64
		want    []byte
	}{{"a", 1, blobA}, {"b", 2, blobB}} {
		got, err := s2.LoadVersion(c.model, c.version)
		if err != nil {
			t.Fatalf("LoadVersion %s v%d after reopen: %v", c.model, c.version, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s v%d differs after reopen", c.model, c.version)
		}
	}
}
