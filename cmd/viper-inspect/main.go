// Command viper-inspect dumps the contents of a serialized Viper
// checkpoint file: chunked v2 (vchunk), its manifest-bearing
// chunk-reconciliation form (manifest), or the lean v1 vformat. It
// auto-detects the format from the file's magic; anything else — an
// h5lite container, which only the simulator's in-memory PFS ever holds,
// included — is reported as an unknown magic.
//
// Usage:
//
//	viper-inspect checkpoint.bin         # summary
//	viper-inspect -stats checkpoint.bin  # per-tensor statistics
//	viper-inspect -json checkpoint.bin   # machine-readable dump
//	viper-inspect -relay 127.0.0.1:7464  # live relay cache inventory
//	viper-inspect -store /var/viper      # durable chunk-store inventory
//
// With -json, output is one JSON object per line (NDJSON): a
// "checkpoint" summary object first, then one "tensor" object per
// tensor, and — for chunked v2 and manifest files — one "chunk" object
// per chunk record describing the container layout (offset, size,
// element span, CRC status; for a manifest, hash and whether it is
// elided).
//
// With -relay, instead of reading a file the tool queries a running
// viper-relay node (its ingest address) and dumps the cached version
// inventory: one line per (model, version) with chunk count and byte
// size (a record that fails its CRC never reaches the cache); with
// -json, one "relay-version" NDJSON object each.
//
// With -store, the tool opens a durable chunk-store directory (the
// -store dir of a viper-relay, or a producer's WithTimeTravel dir) and
// dumps the recovered inventory: a store summary (segments, live/dead
// bytes, unique chunks) followed by one line per committed version;
// with -json, a "store" object then "store-version" NDJSON objects.
// Opening replays the manifest log exactly as crash recovery does, so
// the dump doubles as an offline consistency check — torn tails are
// reported in the summary's truncated_tails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"viper/internal/chunkstore"
	"viper/internal/relay"
	"viper/internal/vformat"
)

func main() {
	stats := flag.Bool("stats", false, "print per-tensor min/max/mean/std")
	jsonOut := flag.Bool("json", false, "emit one JSON object per line (summary, tensors, chunk layout)")
	relayAddr := flag.String("relay", "", "dump a running relay's cached version inventory instead of reading a file (ingest address)")
	storeDir := flag.String("store", "", "dump a durable chunk-store directory's recovered inventory instead of reading a file")
	flag.Parse()
	if *relayAddr != "" {
		if err := inspectRelay(*relayAddr, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "viper-inspect: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storeDir != "" {
		if err := inspectStore(*storeDir, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "viper-inspect: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: viper-inspect [-stats] [-json] <checkpoint-file> | viper-inspect -relay <addr> [-json] | viper-inspect -store <dir> [-json]")
		os.Exit(2)
	}
	path := flag.Arg(0)
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-inspect: %v\n", err)
		os.Exit(1)
	}
	if err := inspect(blob, *stats, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "viper-inspect: %v\n", err)
		os.Exit(1)
	}
}

// emitter renders either the human-readable report or the NDJSON dump.
type emitter struct {
	json  bool
	enc   *json.Encoder
	stats bool
}

func newEmitter(jsonOut, stats bool) *emitter {
	return &emitter{json: jsonOut, enc: json.NewEncoder(os.Stdout), stats: stats}
}

// jsonSummary is the leading "checkpoint" object of an NDJSON dump.
type jsonSummary struct {
	Kind      string  `json:"kind"` // "checkpoint"
	Format    string  `json:"format"`
	Model     string  `json:"model,omitempty"`
	Version   uint64  `json:"version,omitempty"`
	Iteration uint64  `json:"iteration,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	Tensors   int     `json:"tensors"`
	Bytes     int64   `json:"payload_bytes,omitempty"`
	// Chunked-container fields (format "vchunk" only).
	Precision  string `json:"precision,omitempty"`
	ChunkElems int    `json:"chunk_elems,omitempty"`
	TotalElems int64  `json:"total_elems,omitempty"`
	NumChunks  int    `json:"num_chunks,omitempty"`
	// Reconciliation fields (format "manifest" only): how many chunk
	// records the blob carries vs. elides as deduplicated against a
	// previously published version.
	CarriedChunks int `json:"carried_chunks,omitempty"`
	ElidedChunks  int `json:"elided_chunks,omitempty"`
}

// jsonTensor is one per-tensor NDJSON line.
type jsonTensor struct {
	Kind     string   `json:"kind"` // "tensor"
	Name     string   `json:"name"`
	Shape    []int    `json:"shape,omitempty"`
	Elements int      `json:"elements"`
	Min      *float64 `json:"min,omitempty"`
	Max      *float64 `json:"max,omitempty"`
	Mean     *float64 `json:"mean,omitempty"`
	Std      *float64 `json:"std,omitempty"`
}

// jsonChunk is one per-chunk layout NDJSON line (chunked v2 and
// manifest-bearing files).
type jsonChunk struct {
	Kind      string `json:"kind"` // "chunk"
	Index     int    `json:"index"`
	StartElem int64  `json:"start_elem,omitempty"`
	Elements  int    `json:"elements,omitempty"`
	Offset    int    `json:"offset,omitempty"`
	Size      int    `json:"size,omitempty"`
	CRCOK     bool   `json:"crc_ok"`
	// Hash is the chunk record's truncated-SHA-256 content hash (hex) —
	// the key content-addressed dedup collapses identical chunks under.
	Hash string `json:"hash,omitempty"`
	// Elided marks a chunk a manifest blob does not carry (the receiver
	// reconciles it from a previously published version).
	Elided bool `json:"elided,omitempty"`
}

func inspect(blob []byte, stats, jsonOut bool) error {
	if len(blob) < 8 {
		return fmt.Errorf("file too short (%d bytes)", len(blob))
	}
	e := newEmitter(jsonOut, stats)
	switch string(blob[:8]) {
	case "VPRF0001":
		ckpt, err := vformat.Decode(blob)
		if err != nil {
			return err
		}
		if !e.json {
			fmt.Printf("format:    vformat (lean full checkpoint)\n")
		}
		e.checkpoint(ckpt, jsonSummary{Format: "vformat"})
	case "VPRC0002":
		return e.chunked(blob)
	case "VPRM0001":
		return e.manifest(blob)
	default:
		return fmt.Errorf("unknown magic %q", blob[:8])
	}
	return nil
}

// jsonRelayVersion is one cached-version NDJSON line of a -relay dump.
type jsonRelayVersion struct {
	Kind    string `json:"kind"` // "relay-version"
	Model   string `json:"model"`
	Version uint64 `json:"version"`
	Key     string `json:"key"`
	Chunks  int    `json:"chunks"`
	Bytes   int64  `json:"bytes"`
	// Deduped counts the positions whose key the model's previous newest
	// version held when this version arrived; Delta marks a version
	// ingested as a manifest+missing stream rather than a full push;
	// Hashes are the per-chunk keys (hex, chunk order) — content hashes
	// unless the push was untagged (relay.VersionInfo).
	Deduped int      `json:"deduped,omitempty"`
	Delta   bool     `json:"delta,omitempty"`
	Hashes  []string `json:"hashes,omitempty"`
}

// inspectRelay queries a running relay node's cached version inventory
// over its ingest protocol and renders it in the active mode.
func inspectRelay(addr string, jsonOut bool) error {
	inv, err := relay.FetchInventory(addr)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, v := range inv {
			enc.Encode(jsonRelayVersion{
				Kind: "relay-version", Model: v.Model, Version: v.Version,
				Key: v.Key, Chunks: v.Chunks, Bytes: v.Bytes,
				Deduped: v.Deduped, Delta: v.Delta, Hashes: v.Hashes,
			})
		}
		return nil
	}
	fmt.Printf("relay:     %s, cached versions: %d\n", addr, len(inv))
	for _, v := range inv {
		chunks := fmt.Sprintf("%d chunks", v.Chunks)
		extra := ""
		if v.Deduped > 0 {
			extra = fmt.Sprintf("  %d deduped", v.Deduped)
		}
		if v.Delta {
			extra += "  delta-ingested"
		}
		fmt.Printf("  %s v%-6d %-14s %10d bytes%s  (%s)\n",
			v.Model, v.Version, chunks, v.Bytes, extra, v.Key)
	}
	return nil
}

// jsonStore is the leading summary object of a -store dump.
type jsonStore struct {
	Kind           string `json:"kind"` // "store"
	Dir            string `json:"dir"`
	Models         int    `json:"models"`
	Versions       int    `json:"versions"`
	Chunks         int    `json:"chunks"`
	Segments       int    `json:"segments"`
	LiveBytes      int64  `json:"live_bytes"`
	DeadBytes      int64  `json:"dead_bytes"`
	TruncatedTails int64  `json:"truncated_tails,omitempty"`
	CorruptChunks  int64  `json:"corrupt_chunks,omitempty"`
	RecoveryNS     int64  `json:"recovery_ns"`
}

// jsonStoreVersion is one committed-version NDJSON line of a -store
// dump.
type jsonStoreVersion struct {
	Kind    string   `json:"kind"` // "store-version"
	Model   string   `json:"model"`
	Version uint64   `json:"version"`
	Key     string   `json:"key"`
	Chunks  int      `json:"chunks"`
	Bytes   int64    `json:"bytes"`
	SavedAt string   `json:"saved_at,omitempty"`
	Hashes  []string `json:"hashes,omitempty"`
}

// inspectStore opens a durable chunk-store directory (running its
// normal crash recovery) and renders the recovered inventory.
func inspectStore(dir string, jsonOut bool) error {
	st, err := chunkstore.Open(dir, chunkstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	stats := st.Stats()
	models := st.Models()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.Encode(jsonStore{
			Kind: "store", Dir: dir, Models: len(models),
			Versions: stats.Versions, Chunks: stats.Chunks,
			Segments: stats.Segments, LiveBytes: stats.LiveBytes,
			DeadBytes:      stats.DeadBytes,
			TruncatedTails: stats.TruncatedTails,
			CorruptChunks:  stats.CorruptChunks,
			RecoveryNS:     stats.Recovery.Nanoseconds(),
		})
		for _, m := range models {
			for _, v := range st.Versions(m) {
				meta, ok := st.Meta(m, v)
				if !ok {
					continue
				}
				hashes := make([]string, 0, len(meta.Hashes))
				for _, h := range meta.Hashes {
					hashes = append(hashes, h.String())
				}
				enc.Encode(jsonStoreVersion{
					Kind: "store-version", Model: meta.Model,
					Version: meta.Version, Key: meta.Key,
					Chunks: len(hashes), Bytes: meta.Bytes,
					SavedAt: meta.SavedAt.UTC().Format("2006-01-02T15:04:05Z"),
					Hashes:  hashes,
				})
			}
		}
		return nil
	}
	fmt.Printf("store:     %s\n", dir)
	fmt.Printf("recovered: %d models, %d versions, %d unique chunks in %v\n",
		len(models), stats.Versions, stats.Chunks, stats.Recovery)
	fmt.Printf("segments:  %d (%d live bytes, %d dead)\n",
		stats.Segments, stats.LiveBytes, stats.DeadBytes)
	if stats.TruncatedTails > 0 {
		fmt.Printf("repaired:  %d torn segment tail(s) truncated on open\n", stats.TruncatedTails)
	}
	for _, m := range models {
		for _, v := range st.Versions(m) {
			meta, ok := st.Meta(m, v)
			if !ok {
				continue
			}
			fmt.Printf("  %s v%-6d %-14s %10d bytes  %s  (%s)\n",
				m, v, fmt.Sprintf("%d chunks", len(meta.Hashes)), meta.Bytes,
				meta.SavedAt.UTC().Format("2006-01-02T15:04:05Z"), meta.Key)
		}
	}
	return nil
}

// chunked reports a chunked v2 container: the decoded checkpoint plus
// the per-chunk wire layout (offsets, sizes, CRC status).
func (e *emitter) chunked(blob []byte) error {
	layout, hdr, _, err := vformat.ParseChunkHeader(blob)
	if err != nil {
		return err
	}
	_, _, recs, err := vformat.ChunkRecords(blob)
	if err != nil {
		return err
	}
	ckpt, err := vformat.DecodeChunked(context.Background(), blob, 0)
	if err != nil {
		return err
	}
	if e.json {
		e.enc.Encode(jsonSummary{
			Kind: "checkpoint", Format: "vchunk",
			Model: ckpt.ModelName, Version: ckpt.Version,
			Iteration: ckpt.Iteration, Loss: ckpt.TrainLoss,
			Tensors: len(ckpt.Weights), Bytes: int64(len(blob)),
			Precision:  layout.Precision.String(),
			ChunkElems: layout.ChunkElems, TotalElems: layout.TotalElems,
			NumChunks: layout.NumChunks,
		})
		for _, nt := range ckpt.Weights {
			e.tensor(nt.Name, nt.Shape, nt.Data)
		}
		for _, r := range recs {
			e.enc.Encode(jsonChunk{
				Kind: "chunk", Index: r.Index, StartElem: r.Start,
				Elements: r.Elems, Offset: r.Offset, Size: r.Size, CRCOK: r.CRCOK,
				Hash: vformat.HashChunkRecord(blob[r.Offset : r.Offset+r.Size]).String(),
			})
		}
		return nil
	}
	fmt.Printf("format:    vchunk (chunked v2 container, wire precision %s)\n", layout.Precision)
	fmt.Printf("model:     %s\n", hdr.ModelName)
	fmt.Printf("version:   %d\n", ckpt.Version)
	fmt.Printf("iteration: %d\n", ckpt.Iteration)
	fmt.Printf("loss:      %g\n", ckpt.TrainLoss)
	fmt.Printf("tensors:   %d, payload: %d bytes\n", len(ckpt.Weights), ckpt.Weights.NumBytes())
	for _, nt := range ckpt.Weights {
		e.tensor(nt.Name, nt.Shape, nt.Data)
	}
	fmt.Printf("chunks:    %d x %d elements (%d total)\n",
		layout.NumChunks, layout.ChunkElems, layout.TotalElems)
	for _, r := range recs {
		status := "ok"
		if !r.CRCOK {
			status = "CORRUPT"
		}
		hash := vformat.HashChunkRecord(blob[r.Offset : r.Offset+r.Size])
		fmt.Printf("  chunk %-4d elems [%d, %d)  bytes [%d, %d)  crc %s  hash %s\n",
			r.Index, r.Start, r.Start+int64(r.Elems), r.Offset, r.Offset+r.Size, status, hash)
	}
	return nil
}

// manifest reports a manifest-bearing blob: the embedded header,
// the per-chunk content hashes, and which records the blob carries vs.
// elides as deduplicated against a previously published version. The
// weights themselves cannot be decoded from the file alone — the elided
// chunks live in the version the receiver holds.
func (e *emitter) manifest(blob []byte) error {
	man, err := vformat.ParseManifest(blob)
	if err != nil {
		return err
	}
	_, hdr, _, err := vformat.ParseChunkHeader(man.Header)
	if err != nil {
		return err
	}
	// Assemble with no span source: whatever stays missing is exactly the
	// elided (deduplicated) chunk set.
	asm, err := vformat.NewManifestAssembler(blob, nil, nil)
	if err != nil {
		return err
	}
	elided := make(map[vformat.ChunkHash]bool)
	for _, h := range asm.MissingHashes() {
		elided[h] = true
	}
	carried := man.Layout.NumChunks - len(elided)
	if e.json {
		e.enc.Encode(jsonSummary{
			Kind: "checkpoint", Format: "manifest",
			Model: hdr.ModelName, Version: hdr.Version,
			Iteration: hdr.Iteration, Loss: hdr.TrainLoss,
			Bytes:      int64(len(blob)),
			Precision:  man.Layout.Precision.String(),
			ChunkElems: man.Layout.ChunkElems, TotalElems: man.Layout.TotalElems,
			NumChunks:     man.Layout.NumChunks,
			CarriedChunks: carried, ElidedChunks: len(elided),
		})
		for i, h := range man.Hashes {
			e.enc.Encode(jsonChunk{
				Kind: "chunk", Index: i, CRCOK: true,
				Hash: h.String(), Elided: elided[h],
			})
		}
		return nil
	}
	fmt.Printf("format:    manifest (manifest-bearing chunk reconciliation, wire precision %s)\n", man.Layout.Precision)
	fmt.Printf("model:     %s\n", hdr.ModelName)
	fmt.Printf("version:   %d\n", hdr.Version)
	fmt.Printf("iteration: %d\n", hdr.Iteration)
	fmt.Printf("loss:      %g\n", hdr.TrainLoss)
	fmt.Printf("chunks:    %d x %d elements (%d total): %d carried, %d deduplicated\n",
		man.Layout.NumChunks, man.Layout.ChunkElems, man.Layout.TotalElems, carried, len(elided))
	for i, h := range man.Hashes {
		origin := "carried"
		if elided[h] {
			origin = "deduped"
		}
		fmt.Printf("  chunk %-4d hash %s  %s\n", i, h, origin)
	}
	return nil
}

// checkpoint emits a full-checkpoint summary plus its tensors.
func (e *emitter) checkpoint(ckpt *vformat.Checkpoint, s jsonSummary) {
	if e.json {
		s.Kind = "checkpoint"
		s.Model = ckpt.ModelName
		s.Version = ckpt.Version
		s.Iteration = ckpt.Iteration
		s.Loss = ckpt.TrainLoss
		s.Tensors = len(ckpt.Weights)
		s.Bytes = ckpt.Weights.NumBytes()
		e.enc.Encode(s)
	} else {
		fmt.Printf("model:     %s\n", ckpt.ModelName)
		fmt.Printf("version:   %d\n", ckpt.Version)
		fmt.Printf("iteration: %d\n", ckpt.Iteration)
		fmt.Printf("loss:      %g\n", ckpt.TrainLoss)
		fmt.Printf("tensors:   %d, payload: %d bytes\n", len(ckpt.Weights), ckpt.Weights.NumBytes())
	}
	for _, nt := range ckpt.Weights {
		e.tensor(nt.Name, nt.Shape, nt.Data)
	}
}

// tensor emits one tensor line in the active mode.
func (e *emitter) tensor(name string, shape []int, data []float64) {
	switch {
	case e.json && e.stats:
		mn, mx, mean, std := tensorStats(data)
		e.enc.Encode(jsonTensor{Kind: "tensor", Name: name, Shape: shape,
			Elements: len(data), Min: &mn, Max: &mx, Mean: &mean, Std: &std})
	case e.json:
		e.enc.Encode(jsonTensor{Kind: "tensor", Name: name, Shape: shape, Elements: len(data)})
	case e.stats:
		mn, mx, mean, std := tensorStats(data)
		fmt.Printf("  %-32s %-12v min=%+.4g max=%+.4g mean=%+.4g std=%.4g\n",
			name, shape, mn, mx, mean, std)
	default:
		fmt.Printf("  %-32s %v (%d elements)\n", name, shape, len(data))
	}
}

func tensorStats(data []float64) (mn, mx, mean, std float64) {
	if len(data) == 0 {
		return 0, 0, 0, 0
	}
	mn, mx = data[0], data[0]
	sum := 0.0
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
	}
	mean = sum / float64(len(data))
	varsum := 0.0
	for _, v := range data {
		varsum += (v - mean) * (v - mean)
	}
	std = math.Sqrt(varsum / float64(len(data)))
	return mn, mx, mean, std
}
