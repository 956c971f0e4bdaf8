package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/relay"
	"viper/internal/transport"
	"viper/internal/vformat"
)

func testBlob(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential("m", nn.NewDense("d1", 6, 10, rng), nn.NewTanh("t"), nn.NewDense("d2", 10, 3, rng))
	ckpt := &vformat.Checkpoint{
		ModelName: "m", Version: 3, Iteration: 30, TrainLoss: 0.25,
		Weights: nn.TakeSnapshot(m),
	}
	blob, err := vformat.EncodeChunked(context.Background(), ckpt, vformat.ChunkOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestInspectChunked covers all four mode combinations over a chunked
// v2 blob; the layout report must not error on any of them.
func TestInspectChunked(t *testing.T) {
	blob := testBlob(t)
	for _, stats := range []bool{false, true} {
		for _, jsonOut := range []bool{false, true} {
			if err := inspect(blob, stats, jsonOut); err != nil {
				t.Fatalf("inspect(stats=%v, json=%v): %v", stats, jsonOut, err)
			}
		}
	}
}

// TestInspectCorruptChunkedRejected: a corrupted chunk container is
// reported as an error, not silently dumped.
func TestInspectCorruptChunkedRejected(t *testing.T) {
	blob := testBlob(t)
	blob[len(blob)-3] ^= 0xFF // inside the last chunk's payload/CRC area
	if err := inspect(blob, false, false); err == nil {
		t.Fatal("inspect accepted a corrupt chunked blob")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(<-out)
}

// TestInspectManifest dumps a manifest-bearing blob that elides its first
// chunk, in both output modes: it is labeled "manifest", and the carried
// and elided counts add up to the chunk count.
func TestInspectManifest(t *testing.T) {
	blob := testBlob(t)
	hashes, err := vformat.ChunkHashesOf(blob)
	if err != nil {
		t.Fatal(err)
	}
	man, _, carried, _, err := vformat.BuildManifestBlob(blob, func(h vformat.ChunkHash) bool { return h == hashes[0] })
	if err != nil {
		t.Fatal(err)
	}
	if carried != len(hashes)-1 {
		t.Fatalf("manifest carries %d of %d chunks, want all but the first", carried, len(hashes))
	}

	text := captureStdout(t, func() error { return inspect(man, false, false) })
	wantCounts := fmt.Sprintf("%d carried, 1 deduplicated", carried)
	if !strings.HasPrefix(text, "format:    manifest (") || !strings.Contains(text, wantCounts) {
		t.Fatalf("text dump lacks the manifest label or %q:\n%s", wantCounts, text)
	}

	lines := strings.Split(strings.TrimSpace(captureStdout(t, func() error { return inspect(man, false, true) })), "\n")
	var sum jsonSummary
	if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Format != "manifest" || sum.CarriedChunks != carried || sum.ElidedChunks != 1 || len(lines) != 1+len(hashes) {
		t.Fatalf("JSON dump: summary %+v and %d lines, want format manifest, %d carried, 1 elided, then %d chunk lines",
			sum, len(lines), carried, len(hashes))
	}
}

// TestInspectTooShort keeps the pre-existing short-file guard.
func TestInspectTooShort(t *testing.T) {
	if err := inspect([]byte("VPRC"), false, true); err == nil {
		t.Fatal("inspect accepted a 4-byte file")
	}
}

// TestInspectH5IsUnknown: the inspector reads only what the real stack
// writes, so an h5lite container is an unknown magic.
func TestInspectH5IsUnknown(t *testing.T) {
	err := inspect([]byte("H5LT0001\x00\x00\x00\x00"), false, false)
	if err == nil || !strings.Contains(err.Error(), "unknown magic") {
		t.Fatalf("inspect(h5lite) = %v, want an unknown-magic error", err)
	}
}

// TestInspectRelay pushes one chunked version into a live relay and
// dumps its inventory in both output modes; an unreachable relay must
// surface as an error.
func TestInspectRelay(t *testing.T) {
	r, err := relay.New(relay.Config{IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	rng := rand.New(rand.NewSource(2))
	ckpt := &vformat.Checkpoint{
		ModelName: "m", Version: 5,
		Weights: nn.TakeSnapshot(nn.NewSequential("m", nn.NewDense("d", 4, 8, rng))),
	}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	tagged := transport.WithMeta(link, map[string]string{"model": "m", "version": "5"})
	if err := transport.SendChunked(context.Background(), tagged, "m/v00000005", enc, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().CachedVersions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relay never cached the pushed version")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, jsonOut := range []bool{false, true} {
		if err := inspectRelay(r.IngestAddr(), jsonOut); err != nil {
			t.Fatalf("inspectRelay(json=%v): %v", jsonOut, err)
		}
	}
	if err := inspectRelay("127.0.0.1:1", false); err == nil {
		t.Fatal("inspectRelay reached a dead address")
	}
}
