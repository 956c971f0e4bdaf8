package chunkstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"viper/internal/mutate"
	"viper/internal/vformat"
)

// TestMutatedStoreDirectory puts the two disk parsers — the segment scan
// and the manifest-log replay — under the deterministic mutator: a
// directory a store wrote (three versions, one retired, an older store's
// reserved-kind entry in the segment), then reopened a few hundred times
// with one file flipped, truncated, spliced, or its entries duplicated and
// reordered, the other intact. Open never panics and never allocates out of
// proportion to the files, and whatever version it lists loads bit for bit
// as the blob that was put under that number: a damaged entry costs its
// version, never its content.
func TestMutatedStoreDirectory(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	blobs := map[uint64][]byte{1: testBlob(t, 31, 256, 1), 2: testBlob(t, 32, 256, 2), 3: testBlob(t, 33, 384, 3)}
	for v := uint64(1); v <= 3; v++ {
		if err := s.PutBlob("m", v, "k", blobs[v]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Retire("m", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	files := make(map[string][]byte)
	for _, name := range []string{segName(0), "manifest.log"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	files[segName(0)] = appendEntry(files[segName(0)], entryBlob, []byte("an older store's opaque payload"))
	size := len(files[segName(0)]) + len(files["manifest.log"])

	dir := filepath.Join(t.TempDir(), "store")
	loaded, short := 0, 0
	for name, seed := range files {
		mutate.Each(27, 400, [][]byte{seed}, func(mutant []byte) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for other, data := range files {
				if other == name {
					data = mutant
				}
				if err := os.WriteFile(filepath.Join(dir, other), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var s *Store
			var err error
			if alloc, limit := mutate.Allocated(func() { s, err = Open(dir, Options{}) }), uint64(8*(size+len(mutant))+256<<10); alloc > limit {
				t.Fatalf("Open allocated %d bytes for a %d-byte directory, limit %d (%s mutated)", alloc, size+len(mutant), limit, name)
			}
			if err != nil {
				short++
				return // refused whole: a file that does not start with its magic
			}
			defer s.Close()
			versions := s.Versions("m")
			for _, v := range versions {
				if got, err := s.LoadVersion("m", v); err != nil || !bytes.Equal(got, blobs[v]) {
					t.Fatalf("%s mutated: version %d is listed and loads as something else (err = %v)", name, v, err)
				}
			}
			loaded += len(versions)
			if len(versions) < 2 {
				short++
			}
		})
	}
	// The pass means something only if it reached both outcomes.
	if loaded == 0 || short == 0 {
		t.Fatalf("%d versions loaded, %d mutants cost a version: the pass missed a path", loaded, short)
	}
	t.Logf("%d versions loaded bit for bit, %d mutants cost a version", loaded, short)
}

// FuzzSegmentScan feeds one segment file to Open, beside no manifest log:
// whatever the bytes, Open succeeds without allocating out of proportion
// to them, every key it indexes reads back as a record that passes its
// own checksum and is that record's content hash (a legacy entry) or the
// key stored right before it, and the scan is stable: a second Open of
// what the first left truncates nothing and indexes the same keys and
// bytes. The seeds are a segment
// the store wrote (keyed entries, content and other keys) and one in the
// legacy layout (unkeyed chunk entries around a reserved one), each a few
// hundred bytes of one-record versions so a finding minimizes quickly.
func FuzzSegmentScan(f *testing.F) {
	dir := f.TempDir()
	s := mustOpen(f, dir, Options{})
	if err := s.PutBlob("m", 1, "k", testBlob(f, 70, 8, 1)); err != nil {
		f.Fatal(err)
	}
	putKeyed(f, s, "m", 2, "v2", testBlob(f, 71, 8, 2))
	s.Close()
	keyed, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	_, recs1 := records(f, testBlob(f, 72, 8, 1))
	_, recs2 := records(f, testBlob(f, 73, 8, 2))
	legacy := appendEntry([]byte(segMagic), entryChunk, recs1[0])
	legacy = appendEntry(legacy, entryBlob, []byte("opaque"))
	legacy = appendEntry(legacy, entryChunk, recs2[0])
	f.Add(keyed)
	f.Add(legacy)

	// One directory for every input (a worker runs its inputs one at a
	// time), both files rewritten each time: Open makes no other file, and
	// with an empty log of its own it writes — and fsyncs — nothing but
	// what the segment's tail costs.
	dir = f.TempDir()
	f.Fuzz(func(t *testing.T, seg []byte) {
		for name, data := range map[string][]byte{segName(0): seg, "manifest.log": []byte(logMagic)} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var s *Store
		var err error
		if alloc, limit := mutate.Allocated(func() { s, err = Open(dir, Options{}) }), uint64(8*len(seg)+256<<10); alloc > limit {
			t.Fatalf("Open allocated %d bytes for a %d-byte segment, limit %d", alloc, len(seg), limit)
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s.mu.Lock()
		keys := make(map[vformat.ChunkHash]int, len(s.index))
		for k, loc := range s.index {
			keys[k] = loc.size
		}
		s.mu.Unlock()
		for k := range keys {
			rec, err := s.ReadChunk(k, nil)
			if err != nil || !vformat.VerifyChunkRecord(rec) {
				t.Fatalf("indexed key %s reads back as %d bytes, err %v", k, len(rec), err)
			}
			if k != vformat.HashChunkRecord(rec) && !bytes.Contains(seg, append(k[:], rec...)) {
				t.Fatalf("key %s is neither its record's content hash nor stored beside it", k)
			}
		}
		st := s.Stats()
		s.Close()

		s = mustOpen(t, dir, Options{})
		defer s.Close()
		again := s.Stats()
		if again.TruncatedTails != 0 || again.Chunks != st.Chunks || again.DeadBytes+again.LiveBytes != st.DeadBytes+st.LiveBytes {
			t.Fatalf("the second Open differs: %+v, the first left %+v", again, st)
		}
		for k, size := range keys {
			s.mu.Lock()
			loc, ok := s.index[k]
			s.mu.Unlock()
			if !ok || loc.size != size {
				t.Fatalf("the second Open lost key %s or its size", k)
			}
		}
	})
}
