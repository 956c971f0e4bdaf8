package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/relay"
	_ "viper/internal/remote" // a node that links remote exposes its registry too
	"viper/internal/transport"
	"viper/internal/vformat"
)

// liveRelay starts a relay with one cached chunked version.
func liveRelay(t *testing.T) *relay.Relay {
	t.Helper()
	r, err := relay.New(relay.Config{IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	rng := rand.New(rand.NewSource(3))
	ckpt := &vformat.Checkpoint{
		ModelName: "m", Version: 7,
		Weights: nn.TakeSnapshot(nn.NewSequential("m", nn.NewDense("d", 4, 8, rng))),
	}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	tagged := transport.WithMeta(link, map[string]string{"model": "m", "version": "7"})
	if err := transport.SendChunked(context.Background(), tagged, "m/v00000007", enc, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().CachedVersions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relay never cached the pushed version")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return r
}

// TestRenderText: the text surface names the relay and transport
// registries, the cached version summary and the read-through
// instruments.
func TestRenderText(t *testing.T) {
	r := liveRelay(t)
	var buf bytes.Buffer
	if err := render(&buf, r.IngestAddr(), 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"viper-top", "cache: 1 versions", "[relay]", "[transport]", "cached_versions",
		"read_through_first_byte_ms", "read_ahead_waits",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderRemotePanel: a node with internal/remote linked in renders
// the [remote] registry, including the stage-flusher, builder, filler
// and hash/span inheritance instruments.
func TestRenderRemotePanel(t *testing.T) {
	r := liveRelay(t)
	var buf bytes.Buffer
	if err := render(&buf, r.IngestAddr(), 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"[remote]", "producer_staged",
		"producer_stage_flushes", "producer_stage_superseded", "producer_stage_flush_ms",
		"consumer_prebuilt_installs", "consumer_abandoned_builds",
		"consumer_cache_fill_ms", "consumer_have_list_lag_ms", "consumer_fill_superseded",
		"producer_hashed_chunks", "producer_inherited_hashes",
		"consumer_inherited_chunks",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderJSON: every NDJSON line parses, metrics lines precede the
// inventory trailer, and the relay registry reports the cached version.
func TestRenderJSON(t *testing.T) {
	r := liveRelay(t)
	var buf bytes.Buffer
	if err := render(&buf, r.IngestAddr(), 1, true); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sawRelay, sawInventory := false, false
	for sc.Scan() {
		var line struct {
			Kind     string `json:"kind"`
			Registry string `json:"registry"`
			Versions int    `json:"versions"`
			Points   []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"points"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Kind {
		case "metrics":
			if sawInventory {
				t.Fatal("metrics line after the inventory trailer")
			}
			if line.Registry == "relay" {
				sawRelay = true
				found := false
				for _, p := range line.Points {
					if p.Name == "cached_versions" && p.Value >= 1 {
						found = true
					}
				}
				if !found {
					t.Fatalf("relay registry missing cached_versions >= 1: %+v", line.Points)
				}
			}
		case "inventory":
			sawInventory = true
			if line.Versions != 1 {
				t.Fatalf("inventory versions = %d, want 1", line.Versions)
			}
		default:
			t.Fatalf("unknown NDJSON kind %q", line.Kind)
		}
	}
	if !sawRelay || !sawInventory {
		t.Fatalf("missing lines: relay=%v inventory=%v", sawRelay, sawInventory)
	}
}

// TestRenderDeadRelay: an unreachable relay surfaces as an error.
func TestRenderDeadRelay(t *testing.T) {
	var buf bytes.Buffer
	if err := render(&buf, "127.0.0.1:1", 1, false); err == nil {
		t.Fatal("render reached a dead address")
	}
}
