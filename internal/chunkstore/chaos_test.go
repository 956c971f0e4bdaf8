package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"viper/internal/faults"
	"viper/internal/vformat"
)

// chaosBase populates a fault-free store with one committed version
// and returns its blob and the total injector-visible op count a
// second PutBlob of blob2 would issue if nothing failed.
func chaosBase(t *testing.T, dir string, opts Options) (blob1 []byte) {
	t.Helper()
	s := mustOpen(t, dir, opts)
	blob1 = testBlob(t, 1000, 4096, 1)
	if err := s.PutBlob("m", 1, "m/v00000001", blob1); err != nil {
		t.Fatalf("PutBlob v1: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return blob1
}

// verifyConsistent reopens dir with no injector and checks every
// retained version reassembles byte-identically to its expectation
// (nil = just require a clean load) with zero corrupt chunks.
func verifyConsistent(t *testing.T, dir string, opts Options, want map[uint64][]byte) *Store {
	t.Helper()
	opts.Injector = nil
	s := mustOpen(t, dir, opts)
	for _, v := range s.Versions("m") {
		got, err := s.LoadVersion("m", v)
		if err != nil {
			t.Fatalf("LoadVersion v%d after crash recovery: %v", v, err)
		}
		if w, ok := want[v]; ok && w != nil && !bytes.Equal(got, w) {
			t.Fatalf("v%d corrupted across crash", v)
		}
	}
	if st := s.Stats(); st.CorruptChunks != 0 {
		t.Fatalf("CorruptChunks = %d after recovery", st.CorruptChunks)
	}
	return s
}

// TestKillMidAppend crashes the store partway through appending a
// version's chunk records: the torn segment tail must be truncated and
// the uncommitted version absent after reopen.
func TestKillMidAppend(t *testing.T) {
	dir := t.TempDir()
	blob1 := chaosBase(t, dir, Options{})

	// Fail the third op: PutBlob v2 issues one "chunkstore/append" per
	// record first, so op 3 is mid-append.
	inj := faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: 2})
	s := mustOpen(t, dir, Options{Injector: inj})
	blob2 := testBlob(t, 2000, 4096, 2)
	err := s.PutBlob("m", 2, "m/v00000002", blob2)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("PutBlob err = %v, want injected fault", err)
	}
	// The crashed store refuses further work.
	w := s.Begin()
	aerr := w.Append(vformat.HashChunkRecord(blob1), blob1)
	w.Abort()
	if !errors.Is(aerr, ErrFailed) {
		t.Fatalf("post-crash append err = %v, want ErrFailed", aerr)
	}
	s.Close()

	s2 := verifyConsistent(t, dir, Options{}, map[uint64][]byte{1: blob1})
	defer s2.Close()
	if vs := s2.Versions("m"); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("Versions = %v, want [1]", vs)
	}
	// Replaying the interrupted publish succeeds.
	if err := s2.PutBlob("m", 2, "m/v00000002", blob2); err != nil {
		t.Fatalf("re-put after recovery: %v", err)
	}
	if got, err := s2.LoadVersion("m", 2); err != nil || !bytes.Equal(got, blob2) {
		t.Fatalf("v2 load after re-put (err=%v)", err)
	}
}

// TestKillMidCommit crashes between the segment fsync barrier and the
// commit record: the chunks are on disk but the version must be
// invisible after reopen (no half-committed state).
func TestKillMidCommit(t *testing.T) {
	dir := t.TempDir()
	blob1 := chaosBase(t, dir, Options{})
	blob2 := testBlob(t, 2000, 4096, 2)
	records := 0
	if err := vformat.WalkChunkRecords(blob2, func([]byte) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}

	// Skip exactly the appends; the first failure lands on the
	// "chunkstore/commit" log write.
	inj := faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: records})
	s := mustOpen(t, dir, Options{Injector: inj})
	if err := s.PutBlob("m", 2, "k2", blob2); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("PutBlob err = %v, want injected fault", err)
	}
	s.Close()

	s2 := verifyConsistent(t, dir, Options{}, map[uint64][]byte{1: blob1})
	defer s2.Close()
	if vs := s2.Versions("m"); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("Versions = %v, want [1] (torn commit surfaced)", vs)
	}
	// The orphaned chunks dedup on replay: re-publishing appends
	// nothing new.
	pre := s2.Stats().DedupedChunks
	if err := s2.PutBlob("m", 2, "k2", blob2); err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if s2.Stats().DedupedChunks-pre != int64(records) {
		t.Fatalf("expected all %d records to dedup against orphans", records)
	}
}

// TestKillMidGC crashes inside retention GC (tombstone write, segment
// delete, log compaction): the store must reopen with every surviving
// version intact whichever side of the crash each step landed on.
func TestKillMidGC(t *testing.T) {
	blob2 := testBlob(t, 2000, 4096, 2)
	records := 0
	if err := vformat.WalkChunkRecords(blob2, func([]byte) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	// Sweep the first few GC-phase ops: retire tombstone, dead-segment
	// delete, and whatever follows.
	for extra := 1; extra <= 4; extra++ {
		t.Run(fmt.Sprintf("gcop%d", extra), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Retention: Retention{MaxVersions: 1}, SegmentBytes: 2048}
			blob1 := chaosBase(t, dir, opts)

			inj := faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: records + 1 + extra - 1})
			o := opts
			o.Injector = inj
			s := mustOpen(t, dir, o)
			err := s.PutBlob("m", 2, "k2", blob2)
			s.Close()
			if err == nil {
				// GC finished before the fault budget was reached (few
				// GC ops this round): nothing to drill.
				t.Skipf("no GC op %d issued", extra)
			}
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("PutBlob err = %v, want injected fault", err)
			}

			s2 := verifyConsistent(t, dir, opts, map[uint64][]byte{1: blob1, 2: blob2})
			defer s2.Close()
			// v2 committed before GC began, so it must have survived;
			// v1 may or may not have been retired yet — both are
			// consistent outcomes.
			vs := s2.Versions("m")
			found := false
			for _, v := range vs {
				if v == 2 {
					found = true
				}
			}
			if !found {
				t.Fatalf("committed v2 lost across GC crash: %v", vs)
			}
		})
	}
}

// TestKillSweepReopensConsistent kills the store at every successive
// op boundary of a publish until one gets through, reopening and fully
// verifying after each crash — mid-append, mid-commit, and mid-GC all
// fall out of the sweep.
func TestKillSweepReopensConsistent(t *testing.T) {
	blob2 := testBlob(t, 2000, 4096, 2)
	const maxOps = 200
	completed := false
	for skip := 0; skip < maxOps; skip++ {
		dir := t.TempDir()
		opts := Options{Retention: Retention{MaxVersions: 1}, SegmentBytes: 2048}
		blob1 := chaosBase(t, dir, opts)

		o := opts
		o.Injector = faults.New(faults.Config{Seed: int64(skip), FailRate: 1, SkipFirst: skip})
		s := mustOpen(t, dir, o)
		err := s.PutBlob("m", 2, "k2", blob2)
		s.Close()
		if err == nil {
			completed = true
			break
		}
		s2 := verifyConsistent(t, dir, opts, map[uint64][]byte{1: blob1, 2: blob2})
		s2.Close()
	}
	if !completed {
		t.Fatalf("publish never completed within %d op budget", maxOps)
	}
}
