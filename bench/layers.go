package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/kvstore"
	"viper/internal/pubsub"
	"viper/internal/relay"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// timed is one isolated measurement: prep and done run untimed around
// every repetition of run.
type timed struct {
	prep func() error
	run  func() error
	done func()
}

// minOf repeats t and returns the fastest run in ms and the mean bytes
// allocated per run.
func minOf(reps int, t timed) (bestMS, allocBytes float64, err error) {
	var best time.Duration
	var alloc uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		if t.prep != nil {
			if err := t.prep(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := t.run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if t.done != nil {
			t.done()
		}
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || d < best {
			best = d
		}
		alloc += m1.TotalAlloc - m0.TotalAlloc
	}
	return ms(best), float64(alloc) / float64(reps), nil
}

// captureConn records the frames SendChunked emits, so the stream
// timing can replay them without an encoder running.
type captureConn struct{ frames []transport.Frame }

func (c *captureConn) Send(f transport.Frame) error {
	c.frames = append(c.frames, f)
	return nil
}
func (c *captureConn) Recv() (transport.Frame, error) { return transport.Frame{}, transport.ErrClosed }
func (c *captureConn) Close() error                   { return nil }

// layerTimings times each layer's public functions in isolation on the
// workload's own checkpoint (generated from the same seed and scale):
// min of sc.layerReps runs, allocations from MemStats deltas.
func layerTimings(cfg runConfig) (map[string]metric, error) {
	m := make(map[string]metric)
	ctx := context.Background()
	sc, reps := cfg.sc, cfg.sc.layerReps
	payload := float64(sc.payloadBytes())
	mib := payload / (1 << 20)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	gen := newModel(cfg.seed, sc)
	ckpt := &vformat.Checkpoint{ModelName: modelName, Version: 1, Weights: gen.snap}
	opts := vformat.ChunkOptions{ChunkBytes: sc.chunkBytes()}
	encode := func(o vformat.ChunkOptions) func() error {
		return func() error {
			enc, err := vformat.NewChunkEncoder(ckpt, o)
			if err != nil {
				return err
			}
			defer enc.Release()
			return enc.EncodeStream(ctx, nil)
		}
	}

	// vformat: dense encode, then the delta producer's base-suppressed one.
	best, alloc, err := minOf(reps, timed{run: encode(opts)})
	if err != nil {
		return nil, err
	}
	put("vformat.encode_ms", best, "ms")
	put("vformat.encode_mib_s", mib/(best/1e3), "MiB/s")
	put("vformat.encode_alloc_bytes_per_byte", alloc/payload, "B/B")
	based := opts
	based.Base, based.BaseEps = gen.snap.Clone(), deltaEps
	best, _, err = minOf(reps, timed{
		prep: func() error { gen.deltaStep(deltaEps); return nil },
		run:  encode(based),
	})
	if err != nil {
		return nil, err
	}
	put("vformat.encode_base_ms", best, "ms")

	// Two adjacent versions of a sparse lineage: blobB differs from blobA
	// in 2 of 64 chunks. EncodeChunked hands its buffer to the caller.
	blobA, err := vformat.EncodeChunked(ctx, ckpt, opts)
	if err != nil {
		return nil, err
	}
	gen.sparseStep(deltaEps)
	blobB, err := vformat.EncodeChunked(ctx, ckpt, opts)
	if err != nil {
		return nil, err
	}
	hashesA, err := vformat.ChunkHashesOf(blobA)
	if err != nil {
		return nil, err
	}
	held := make(map[vformat.ChunkHash]bool, len(hashesA))
	for _, h := range hashesA {
		held[h] = true
	}
	have := func(h vformat.ChunkHash) bool { return held[h] }

	best, _, err = minOf(reps, timed{run: func() error {
		_, records, _, _, err := vformat.PlanDelta(blobB, have)
		if err == nil && len(records) != 2 {
			err = fmt.Errorf("PlanDelta carries %d records, want 2", len(records))
		}
		return err
	}})
	if err != nil {
		return nil, err
	}
	put("vformat.plan_delta_ms", best, "ms")

	var sink vformat.ChunkHash
	best, _, err = minOf(reps, timed{run: func() error {
		return vformat.WalkChunkRecords(blobB, func(rec []byte) error {
			sink = vformat.HashChunkRecord(rec)
			return nil
		})
	}})
	if err != nil {
		return nil, err
	}
	_ = sink
	put("vformat.hash_ms", best, "ms")

	best, _, err = minOf(reps, timed{run: func() error {
		return vformat.WalkChunkRecords(blobB, func(rec []byte) error {
			if !vformat.VerifyChunkRecord(rec) {
				return errors.New("VerifyChunkRecord rejected a fresh record")
			}
			return nil
		})
	}})
	if err != nil {
		return nil, err
	}
	put("vformat.verify_ms", best, "ms")

	best, alloc, err = minOf(reps, timed{run: func() error {
		_, err := vformat.DecodeAuto(ctx, blobB, 0)
		return err
	}})
	if err != nil {
		return nil, err
	}
	put("vformat.decode_ms", best, "ms")
	put("vformat.decode_alloc_bytes_per_byte", alloc/payload, "B/B")

	cache := vformat.NewChunkCache(0)
	if err := cache.PutAll(blobA); err != nil {
		return nil, err
	}
	deltaBlob, _, _, _, err := vformat.BuildManifestBlob(blobB, have)
	if err != nil {
		return nil, err
	}
	best, _, err = minOf(reps, timed{run: func() error {
		_, reused, err := vformat.ReconcileBlob(ctx, deltaBlob, cache)
		if err == nil && reused < numChunks-2 { // the first run caches the two carried records too
			err = fmt.Errorf("ReconcileBlob reused %d chunks, want at least %d", reused, numChunks-2)
		}
		return err
	}})
	if err != nil {
		return nil, err
	}
	put("vformat.reconcile_ms", best, "ms")

	if err := transportTimings(ctx, ckpt, opts, reps, payload, put); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(cfg.dir, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := storeTimings(ctx, gen, ckpt, opts, reps, dir, put); err != nil {
		return nil, err
	}
	if err := serviceTimings(blobB, reps, put); err != nil {
		return nil, err
	}
	return m, nil
}

// transportTimings sends one pre-encoded 65-frame stream over a loopback
// TCPLink pair (Send on one side, a Recv loop on the other), and a
// 64-byte frame there and back.
func transportTimings(ctx context.Context, ckpt *vformat.Checkpoint, opts vformat.ChunkOptions, reps int, payload float64, put func(string, float64, string)) error {
	enc, err := vformat.NewChunkEncoder(ckpt, opts)
	if err != nil {
		return err
	}
	defer enc.Release() // the captured frames alias the encoder's blob
	var stream captureConn
	if err := transport.SendChunked(ctx, &stream, "bench/stream", enc, 0); err != nil {
		return err
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	tx, err := transport.DialTCP(ln.Addr())
	if err != nil {
		return err
	}
	defer tx.Close()
	rx, err := ln.Accept()
	if err != nil {
		return err
	}
	defer rx.Close()

	best, alloc, err := minOf(reps, timed{run: func() error {
		sent := make(chan error, 1)
		go func() {
			for _, f := range stream.frames {
				if err := tx.Send(f); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		for range stream.frames {
			if _, err := rx.Recv(); err != nil {
				return err
			}
		}
		return <-sent
	}})
	if err != nil {
		return err
	}
	put("transport.stream_ms", best, "ms")
	put("transport.stream_mib_s", payload/(1<<20)/(best/1e3), "MiB/s")
	put("transport.stream_alloc_bytes_per_byte", alloc/payload, "B/B")

	small := transport.Frame{Key: "bench/ping", Payload: make([]byte, 64)}
	best, _, err = minOf(20*reps, timed{run: func() error {
		if err := tx.Send(small); err != nil {
			return err
		}
		f, err := rx.Recv()
		if err != nil {
			return err
		}
		if err := rx.Send(f); err != nil {
			return err
		}
		_, err = tx.Recv()
		return err
	}})
	if err != nil {
		return err
	}
	put("transport.small_frame_rtt_us", best*1e3, "us")
	return nil
}

// storeTimings drives a chunkstore directly: dense puts, a sparse
// lineage (62 of 64 chunks already stored), a load, and reopening the
// populated directory — as a bare store and as a relay.
func storeTimings(ctx context.Context, gen *model, ckpt *vformat.Checkpoint, opts vformat.ChunkOptions, reps int, dir string, put func(string, float64, string)) error {
	var blob []byte
	var version uint64
	var bytesPut float64
	lineage := func(step func()) timed {
		return timed{
			prep: func() (err error) {
				step()
				version++
				blob, err = vformat.EncodeChunked(ctx, ckpt, opts)
				return err
			},
			run:  nil, // set per store below
			done: func() { bytesPut += float64(len(blob)); vformat.ReleaseBuffer(blob) },
		}
	}
	payload := float64(gen.sc.payloadBytes())

	denseDir := filepath.Join(dir, "dense")
	dense, err := chunkstore.Open(denseDir, chunkstore.Options{})
	if err != nil {
		return err
	}
	defer dense.Close()
	t := lineage(gen.denseStep)
	t.run = func() error { return dense.PutBlob(modelName, version, "bench/dense", blob) }
	best, alloc, err := minOf(reps, t)
	if err != nil {
		return err
	}
	put("chunkstore.put_blob_ms", best, "ms")
	put("chunkstore.put_alloc_bytes_per_byte", alloc/payload, "B/B")
	put("chunkstore.disk_bytes_per_payload_byte", float64(dirSize(denseDir))/bytesPut, "B/B")
	best, alloc, err = minOf(reps, timed{run: func() error {
		_, err := dense.LoadVersion(modelName, version)
		return err
	}})
	if err != nil {
		return err
	}
	put("chunkstore.load_version_ms", best, "ms")
	put("chunkstore.load_alloc_bytes_per_byte", alloc/payload, "B/B")

	sparseDir := filepath.Join(dir, "sparse")
	sparse, err := chunkstore.Open(sparseDir, chunkstore.Options{})
	if err != nil {
		return err
	}
	version, bytesPut = 0, 0
	t = lineage(func() { gen.sparseStep(deltaEps) })
	t.run = func() error { return sparse.PutBlob(modelName, version, "bench/sparse", blob) }
	if _, _, err := minOf(1, t); err != nil { // v1 stores every chunk
		sparse.Close()
		return err
	}
	sparseReps := reps
	if sparseReps < gen.sc.seedVers-1 {
		sparseReps = gen.sc.seedVers - 1 // the reopen timings below want a seedVers-deep directory
	}
	best, _, err = minOf(sparseReps, t)
	if cerr := sparse.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	put("chunkstore.put_blob_sparse_ms", best, "ms")
	put("chunkstore.disk_bytes_per_payload_byte_sparse", float64(dirSize(sparseDir))/bytesPut, "B/B")

	var reopened *chunkstore.Store
	best, _, err = minOf(reps, timed{
		run:  func() (err error) { reopened, err = chunkstore.Open(sparseDir, chunkstore.Options{}); return err },
		done: func() { reopened.Close() },
	})
	if err != nil {
		return err
	}
	put("chunkstore.open_ms", best, "ms")

	var rel *relay.Relay
	best, _, err = minOf(reps, timed{
		run: func() (err error) {
			rel, err = relay.New(relay.Config{IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0", StoreDir: sparseDir})
			return err
		},
		done: func() { rel.Close() },
	})
	if err != nil {
		return err
	}
	put("relay.reopen_ms", best, "ms")
	return nil
}

// serviceTimings times the metadata and notification services over
// their TCP clients: the staging Set of a whole blob, a metadata-sized
// Set+Get, and publish → subscriber delivery.
func serviceTimings(blob []byte, reps int, put func(string, float64, string)) error {
	kvSrv := kvstore.NewServer(kvstore.NewStore())
	defer kvSrv.Close()
	addr, err := kvSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	kv, err := kvstore.Dial(addr)
	if err != nil {
		return err
	}
	defer kv.Close()
	best, _, err := minOf(reps, timed{run: func() error {
		return kv.Set("bench/staged", string(blob)) // the producer converts the same way
	}})
	if err != nil {
		return err
	}
	put("kvstore.stage_set_ms", best, "ms")
	meta := strings.Repeat("m", 200)
	best, _, err = minOf(20*reps, timed{run: func() error {
		if err := kv.Set("bench/meta", meta); err != nil {
			return err
		}
		_, err := kv.Get("bench/meta")
		return err
	}})
	if err != nil {
		return err
	}
	put("kvstore.meta_rtt_us", best*1e3, "us")

	psSrv := pubsub.NewServer(pubsub.NewBroker(64))
	defer psSrv.Close()
	if addr, err = psSrv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	sub, err := pubsub.DialClient(addr)
	if err != nil {
		return err
	}
	defer sub.Close()
	events, err := sub.Subscribe("bench/updates")
	if err != nil {
		return err
	}
	pub, err := pubsub.DialClient(addr)
	if err != nil {
		return err
	}
	defer pub.Close()
	best, _, err = minOf(20*reps, timed{run: func() error {
		if _, err := pub.Publish("bench/updates", meta); err != nil {
			return err
		}
		select {
		case <-events:
			return nil
		case <-time.After(opTimeout):
			return errors.New("notification never arrived")
		}
	}})
	if err != nil {
		return err
	}
	put("pubsub.notify_us", best*1e3, "us")
	return nil
}

// dirSize sums the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
