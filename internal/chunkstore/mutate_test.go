package chunkstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"viper/internal/mutate"
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
