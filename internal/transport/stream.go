package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// Chunked streaming: a checkpoint in vformat's chunked v2 wire format
// travels as one header frame followed by one frame per chunk, all under
// the same key. Because the encoder emits records as their prefix
// completes, chunk N is on the wire while chunk N+1 is still being
// encoded, and the consumer assembles (and CRC-checks) chunks as they
// arrive instead of waiting for one monolithic blob. No goroutines are
// spawned here — the overlap comes from the encoder's worker pool and
// from Send/Recv running on opposite endpoints.
//
// Frame metadata (string values, consistent with the existing Meta map):
//
//	vchunk:       "header" or "chunk"
//	vchunk-count: total number of chunk frames to follow (header only)

// Chunk-stream Meta keys and roles.
const (
	// MetaChunkRole marks a frame as part of a chunk stream.
	MetaChunkRole = "vchunk"
	// MetaChunkCount carries the chunk count on the header frame.
	MetaChunkCount = "vchunk-count"
	// ChunkRoleHeader is the MetaChunkRole value of a stream header frame.
	ChunkRoleHeader = "header"
	// ChunkRoleChunk is the MetaChunkRole value of a chunk frame.
	ChunkRoleChunk = "chunk"
	// ChunkRoleManifest is the MetaChunkRole value of a delta-stream
	// manifest frame: the payload is a vformat manifest and
	// MetaChunkCount counts only the missing-chunk frames that follow.
	ChunkRoleManifest = "manifest"
)

// Reconciliation side-channel frames (delta distribution).
const (
	// HaveKey is the frame key of a have-list: a receiver advertising
	// the chunk content hashes it holds, so the next send can elide
	// them. Meta carries the model and last installed version.
	HaveKey = "viper/chunk-have"
	// NeedKey is the frame key of a need-list: a receiver that no longer
	// holds chunks it advertised asks the sender to re-send them
	// mid-stream. Meta carries the stream key being reconciled.
	NeedKey = "viper/chunk-need"
	// MetaHaveModel and MetaHaveVersion annotate a have-list.
	MetaHaveModel   = "have-model"
	MetaHaveVersion = "have-version"
	// MetaNeedFor carries the stream key a need-list belongs to.
	MetaNeedFor = "need-for"
	// MetaReconcile on a stream header marks the sender as
	// delta-capable: it reads its link and consumes have/need frames, so
	// the receiver may advertise its chunk store back. Senders that do
	// not set it are never sent reconciliation traffic (a legacy
	// producer that never Recvs would otherwise accumulate frames until
	// TCP backpressure stalled the peer).
	MetaReconcile = "vchunk-reconcile"
)

// Dedup accounting for the delta distribution path, reported under the
// transport registry alongside the link counters.
var (
	chunksSent    = registry.Counter("chunks_sent_total")
	chunksDeduped = registry.Counter("chunks_deduped_total")
	bytesSaved    = registry.Counter("bytes_saved_total")
)

// ErrTornStream is returned by CollectChunked when a foreign frame
// interrupts a chunk stream before it completes (e.g. the producer
// abandoned the version and started streaming a newer one).
var ErrTornStream = errors.New("transport: chunk stream torn")

// IsChunkHeader reports whether f opens a chunk stream.
func IsChunkHeader(f Frame) bool { return f.Meta[MetaChunkRole] == ChunkRoleHeader }

// IsChunkFrame reports whether f is a chunk-data frame.
func IsChunkFrame(f Frame) bool { return f.Meta[MetaChunkRole] == ChunkRoleChunk }

// IsManifestHeader reports whether f opens a delta (manifest) stream.
func IsManifestHeader(f Frame) bool { return f.Meta[MetaChunkRole] == ChunkRoleManifest }

// IsHaveFrame reports whether f is a have-list advertisement.
func IsHaveFrame(f Frame) bool { return f.Key == HaveKey }

// IsNeedFrame reports whether f is a mid-stream re-send request.
func IsNeedFrame(f Frame) bool { return f.Key == NeedKey }

// NewHaveFrame builds a have-list advertising hashes for model at
// version (the receiver's freshly installed checkpoint).
func NewHaveFrame(model string, version uint64, hashes []vformat.ChunkHash) Frame {
	return Frame{
		Key:     HaveKey,
		Payload: vformat.AppendHashes(nil, hashes),
		Meta: map[string]string{
			MetaHaveModel:   model,
			MetaHaveVersion: strconv.FormatUint(version, 10),
		},
	}
}

// ParseHaveFrame extracts the model, version, and hash list of a
// have-list frame.
func ParseHaveFrame(f Frame) (model string, version uint64, hashes []vformat.ChunkHash, err error) {
	if !IsHaveFrame(f) {
		return "", 0, nil, fmt.Errorf("transport: frame %q is not a have-list", f.Key)
	}
	version, err = strconv.ParseUint(f.Meta[MetaHaveVersion], 10, 64)
	if err != nil {
		return "", 0, nil, fmt.Errorf("transport: have-list version: %w", err)
	}
	hashes, err = vformat.SplitHashes(f.Payload)
	if err != nil {
		return "", 0, nil, err
	}
	return f.Meta[MetaHaveModel], version, hashes, nil
}

// NewNeedFrame builds a re-send request for hashes of the stream
// identified by streamKey.
func NewNeedFrame(streamKey string, hashes []vformat.ChunkHash) Frame {
	return Frame{
		Key:     NeedKey,
		Payload: vformat.AppendHashes(nil, hashes),
		Meta:    map[string]string{MetaNeedFor: streamKey},
	}
}

// ParseNeedFrame extracts the stream key and hash list of a need-list.
func ParseNeedFrame(f Frame) (streamKey string, hashes []vformat.ChunkHash, err error) {
	if !IsNeedFrame(f) {
		return "", nil, fmt.Errorf("transport: frame %q is not a need-list", f.Key)
	}
	hashes, err = vformat.SplitHashes(f.Payload)
	if err != nil {
		return "", nil, err
	}
	return f.Meta[MetaNeedFor], hashes, nil
}

// SendChunked streams enc's checkpoint over conn as a header frame plus
// one frame per chunk, pipelining: while Send blocks on chunk N, the
// encoder's workers keep encoding chunks N+1…. Frames alias the
// encoder's blob, which is safe because every Conn fully writes the
// payload before Send returns. The caller retains ownership of enc (and
// must Release it). The last argument is ignored; it stays until the
// benchmark harness stops passing it.
func SendChunked(ctx context.Context, conn Conn, key string, enc *vformat.ChunkEncoder, _ int64) error {
	hf := Frame{
		Key:     key,
		Payload: enc.Header(),
		Meta: map[string]string{
			MetaChunkRole:  ChunkRoleHeader,
			MetaChunkCount: strconv.Itoa(enc.NumChunks()),
		},
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := conn.Send(hf); err != nil {
		return fmt.Errorf("transport: chunk stream header: %w", err)
	}
	return enc.EncodeStream(ctx, func(_ int, rec []byte) error {
		chunksSent.Inc()
		return conn.Send(ChunkRecordFrame(key, rec))
	})
}

// SendChunkedDelta streams a delta: one manifest frame, then only the
// records the receiver's have-list did not cover. records must already
// be encoded (delta sends trade the encode/send overlap for the
// manifest, which needs every hash up front — steady-state deltas are
// small, so the trade wins). totalChunks is the version's chunk count and
// fullSize the full blob's byte size; their differences against what
// ships are what the dedup counters record.
func SendChunkedDelta(ctx context.Context, conn Conn, key string, manifest []byte, records [][]byte, totalChunks, fullSize int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	mf := Frame{
		Key:     key,
		Payload: manifest,
		Meta: map[string]string{
			MetaChunkRole:  ChunkRoleManifest,
			MetaChunkCount: strconv.Itoa(len(records)),
		},
	}
	if err := conn.Send(mf); err != nil {
		return fmt.Errorf("transport: delta stream manifest: %w", err)
	}
	saved := int64(0)
	for _, rec := range records {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunksSent.Inc()
		if err := conn.Send(ChunkRecordFrame(key, rec)); err != nil {
			return err
		}
	}
	if deduped := totalChunks - len(records); deduped > 0 {
		chunksDeduped.Add(int64(deduped))
		for _, rec := range records {
			saved -= int64(len(rec))
		}
		// Saved bytes = full payload bytes minus what actually shipped
		// (the manifest is overhead against the saving).
		saved += int64(fullSize) - int64(len(manifest))
		if saved > 0 {
			bytesSaved.Add(saved)
		}
	}
	return nil
}

// ChunkRecordIndex reads the chunk index embedded in an encoded chunk
// record (-1 if the record is too short to carry one).
func ChunkRecordIndex(rec []byte) int {
	if len(rec) < 8 {
		return -1
	}
	return int(binary.LittleEndian.Uint32(rec[4:]))
}

// ChunkRecordFrame wraps one encoded chunk record, which states its own
// index (ChunkRecordIndex), as a stream frame: the one builder of a record
// frame, for SendChunked, delta sends and the relay's fan-out.
func ChunkRecordFrame(key string, rec []byte) Frame {
	return Frame{Key: key, Payload: rec, Meta: map[string]string{MetaChunkRole: ChunkRoleChunk}}
}

// CollectChunked assembles the chunk stream opened by header, calling
// recv for successive frames until the checkpoint is complete. Chunks
// are verified and decoded as they arrive, into target's arrays when it
// is not nil (vformat.NewChunkAssembler: the header's layout must fit it,
// and its contents mean nothing unless the collect succeeds) and into a
// fresh snapshot otherwise. If a frame not belonging to
// the stream arrives first, assembly aborts with ErrTornStream and the
// foreign frame is returned so the caller can process it (typically the
// header of a newer version). Cancelling ctx aborts between frames; a
// blocked recv is unblocked by closing the underlying conn.
func CollectChunked(ctx context.Context, header Frame, target nn.Snapshot, recv func() (Frame, error)) (*vformat.Checkpoint, *Frame, error) {
	if !IsChunkHeader(header) {
		return nil, nil, fmt.Errorf("transport: frame %q is not a chunk-stream header", header.Key)
	}
	asm, err := vformat.NewChunkAssembler(header.Payload, target)
	if err != nil {
		return nil, nil, err
	}
	for !asm.Complete() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		f, err := recv()
		if err != nil {
			return nil, nil, fmt.Errorf("transport: chunk stream after %d missing: %w", asm.Missing(), err)
		}
		if !IsChunkFrame(f) || f.Key != header.Key {
			foreign := f
			return nil, &foreign, fmt.Errorf("%w: got frame %q mid-stream with %d chunks missing",
				ErrTornStream, f.Key, asm.Missing())
		}
		if _, err := asm.Add(f.Payload); err != nil {
			return nil, nil, err
		}
	}
	ckpt, err := asm.Checkpoint()
	if err != nil {
		return nil, nil, err
	}
	return ckpt, nil, nil
}

// CollectChunkedDeltaInto finishes asm — the assembler the caller seeded
// from manifest's payload and, if it has one, a span source — over the
// delta stream manifest opens: chunks already held locally were placed
// when asm was built, missing-chunk frames are collected from recv, and —
// if the stream ends with gaps because this receiver's source moved on
// since it advertised its hashes — a need-list is sent
// back through send and assembly continues with the re-sent records. The
// checkpoint is only ever returned complete and CRC-verified: a stream
// that cannot be finished fails with ErrTornStream or ErrMissingChunk,
// never a torn install. send may be nil when the link has no backchannel;
// chunks no longer held then fail the collect and the caller falls back
// to a full fetch.
func CollectChunkedDeltaInto(ctx context.Context, manifest Frame, asm *vformat.ManifestAssembler, recv func() (Frame, error), send func(Frame) error) (*vformat.Checkpoint, *Frame, error) {
	if !IsManifestHeader(manifest) {
		return nil, nil, fmt.Errorf("transport: frame %q is not a delta-stream manifest", manifest.Key)
	}
	expected, err := strconv.Atoi(manifest.Meta[MetaChunkCount])
	if err != nil {
		return nil, nil, fmt.Errorf("transport: delta manifest chunk count: %w", err)
	}
	received, needSent := 0, false
	for !asm.Complete() {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if received >= expected && !needSent {
			// Everything the sender planned to ship arrived, yet chunks
			// are still missing: we advertised hashes we no longer hold.
			// Ask for a re-send rather than assembling torn.
			missing := asm.MissingHashes()
			if send == nil {
				return nil, nil, fmt.Errorf("%w: %d chunks no longer held since advertisement and no backchannel",
					vformat.ErrMissingChunk, len(missing))
			}
			if err := send(NewNeedFrame(manifest.Key, missing)); err != nil {
				return nil, nil, fmt.Errorf("transport: need-list send: %w", err)
			}
			needSent = true
		}
		f, err := recv()
		if err != nil {
			return nil, nil, fmt.Errorf("transport: delta stream after %d received: %w", received, err)
		}
		if !IsChunkFrame(f) || f.Key != manifest.Key {
			foreign := f
			return nil, &foreign, fmt.Errorf("%w: got frame %q mid-delta-stream",
				ErrTornStream, f.Key)
		}
		if _, err := asm.Add(f.Payload); err != nil {
			return nil, nil, err
		}
		received++
	}
	ckpt, err := asm.Checkpoint()
	if err != nil {
		return nil, nil, err
	}
	return ckpt, nil, nil
}
