// Golden fixture for poolown, loaded under viper/internal/core (an
// in-scope delivery package). The first case reproduces the PR-4
// historical bug class: the header send fails and the error return
// leaks the pooled blob instead of putting it back.
package poolfix

import (
	"context"
	"errors"

	"viper/internal/vformat"
)

var errSend = errors.New("send failed")

func sendHeader() error { return errSend }

// send retains the blob (the v4 summary layer infers param0=transfers);
// a stub that ignored its argument would now be seen through, and the
// callers below would correctly be flagged as leaks.
func send(b []byte) error { outbox = append(outbox, b); return nil }

var outbox [][]byte

// leakOnHeaderSendFailure is the PR-4 bug: encode succeeds, the header
// send fails, and the early error return drops the pooled blob.
func leakOnHeaderSendFailure(ctx context.Context, ckpt *vformat.Checkpoint) error {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err // refined: the acquire failed, nothing to release
	}
	if err := sendHeader(); err != nil {
		return err // want "pooled blob blob leaks on this return path"
	}
	return send(blob) // ownership transferred to send
}

// recoveredHeaderSendFailure is the PR-4 fix shape: the failure path
// releases before returning.
func recoveredHeaderSendFailure(ctx context.Context, ckpt *vformat.Checkpoint) error {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	if err := sendHeader(); err != nil {
		vformat.ReleaseBuffer(blob)
		return err
	}
	return send(blob)
}

func doubleRelease(ctx context.Context, ckpt *vformat.Checkpoint) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return
	}
	vformat.ReleaseBuffer(blob)
	vformat.ReleaseBuffer(blob) // want "pooled blob blob released twice"
}

func useAfterRelease(ctx context.Context, ckpt *vformat.Checkpoint) byte {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return 0
	}
	vformat.ReleaseBuffer(blob)
	return blob[0] // want "pooled blob blob used after release"
}

// deferredRelease is clean: the deferred release discharges every path.
func deferredRelease(ctx context.Context, ckpt *vformat.Checkpoint) (int, error) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return 0, err
	}
	defer vformat.ReleaseBuffer(blob)
	if len(blob) == 0 {
		return 0, errSend
	}
	return len(blob), nil
}

// transferByReturn is clean: returning the blob hands ownership to the
// caller (the §8 encode path itself has this shape).
func transferByReturn(ctx context.Context, ckpt *vformat.Checkpoint) ([]byte, error) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// encoderLeak loses a ChunkEncoder on the error path after Layout
// succeeds; the encoder holds a pooled blob until Release.
func encoderLeak(ckpt *vformat.Checkpoint) error {
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	if enc.NumChunks() == 0 {
		return errSend // want "chunk encoder enc leaks on this return path"
	}
	enc.Release()
	return nil
}

// encoderClean releases on every path via defer.
func encoderClean(ckpt *vformat.Checkpoint) error {
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	defer enc.Release()
	if enc.NumChunks() == 0 {
		return errSend
	}
	return nil
}

// waived shows a lint:ignore directive suppressing a real finding.
func waived(ctx context.Context, ckpt *vformat.Checkpoint) error {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	_ = blob[0]
	//lint:ignore poolown fixture demonstrates a waived leak
	return errSend
}

// --- defer-capture rebinding (the PR-10 growBuf bug class) -------------

// regrow mimics chunkstore.growBuf's shape from the caller's side: the
// old blob's ownership transfers in and a replacement comes back.
func regrow(b []byte, n int) []byte {
	outbox = append(outbox, b)
	return make([]byte, 0, n)
}

// rebindUnderDeferredRelease is the PR-10 bug: `defer ReleaseBuffer(blob)`
// evaluated its argument at the defer statement, so after the rebind the
// deferred call frees the original blob — double-pooling it if regrow
// already recycled it, leaking the replacement either way.
func rebindUnderDeferredRelease(ctx context.Context, ckpt *vformat.Checkpoint) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return
	}
	defer vformat.ReleaseBuffer(blob)
	blob = regrow(blob, 1<<20) // want "pooled blob blob reassigned after defer captured it for release"
	_ = blob
}

// rebindClosureClean is the fix shape: the closure reads blob at exit,
// so the deferred release always frees the current value.
func rebindClosureClean(ctx context.Context, ckpt *vformat.Checkpoint) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return
	}
	defer func() { vformat.ReleaseBuffer(blob) }()
	blob = regrow(blob, 1<<20)
	_ = blob
}

// resliceClean re-slices the same backing array; the captured value and
// the current one release identically.
func resliceClean(ctx context.Context, ckpt *vformat.Checkpoint) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return
	}
	defer vformat.ReleaseBuffer(blob)
	blob = blob[:0]
	_ = blob
}

// --- cross-call shapes (the v4 summary layer) --------------------------

// verifyRecord mirrors vformat.VerifyChunkRecord: a pure reader over
// the pooled bytes (inferred param0=none). v3 treated any untabled call
// as an escape and went silent; the summary keeps the obligation alive.
func verifyRecord(b []byte) bool {
	n := 0
	for _, x := range b {
		n += int(x)
	}
	return n != 0
}

// leakAfterPureUse is the blind spot v4 removes: the verify call no
// longer launders the blob, so the early return still leaks it.
func leakAfterPureUse(ctx context.Context, ckpt *vformat.Checkpoint) error {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	ok := verifyRecord(blob)
	if !ok {
		return errSend // want "pooled blob blob leaks on this return path"
	}
	vformat.ReleaseBuffer(blob)
	return nil
}

// discard releases through a helper (inferred param0=releases).
func discard(b []byte) {
	vformat.ReleaseBuffer(b)
}

// helperReleaseClean is clean: the helper's summary discharges the
// obligation on the success path.
func helperReleaseClean(ctx context.Context, ckpt *vformat.Checkpoint) error {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	discard(blob)
	return nil
}

// doubleViaHelper releases through the helper and then again directly:
// v3 lost track at the helper call; v4 sees the double release.
func doubleViaHelper(ctx context.Context, ckpt *vformat.Checkpoint) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return
	}
	discard(blob)
	vformat.ReleaseBuffer(blob) // want "pooled blob blob released twice"
}

// encodeOwned acquires through its result (inferred result=acquires
// with the error-pair refinement): callers inherit the obligation with
// nothing declared.
func encodeOwned(ctx context.Context, ckpt *vformat.Checkpoint) ([]byte, error) {
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{})
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// leakFromHelperAcquire leaks a blob minted by the helper above — a
// shape v3 could not see at all.
func leakFromHelperAcquire(ctx context.Context, ckpt *vformat.Checkpoint) error {
	blob, err := encodeOwned(ctx, ckpt)
	if err != nil {
		return err // refined: the helper's acquire failed
	}
	if len(blob) == 0 {
		return errSend // want "pooled blob blob leaks on this return path"
	}
	vformat.ReleaseBuffer(blob)
	return nil
}

// --- encoder → caller hand-over (ChunkEncoder.Detach) ------------------

// retained mirrors the remote producer's retainedBlob: a struct that
// parks a detached blob until a later owner releases it.
type retained struct{ buf []byte }

var parked *retained

// detachLeak takes the blob out of the encoder and then loses it: the
// deferred Release is a no-op after Detach, so nobody returns it.
func detachLeak(ctx context.Context, ckpt *vformat.Checkpoint) error {
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	defer enc.Release()
	if err := enc.EncodeStream(ctx, nil); err != nil {
		return err
	}
	blob, err := enc.Detach()
	if err != nil {
		return err // refined: nothing was detached
	}
	if len(blob) == 0 {
		return errSend // want "pooled blob blob leaks on this return path"
	}
	vformat.ReleaseBuffer(blob)
	return nil
}

// detachParkClean is the producer's shape: the detached blob is parked
// in a long-lived struct (ownership transferred), the encoder's deferred
// Release stays as the error-path safety net.
func detachParkClean(ctx context.Context, ckpt *vformat.Checkpoint) error {
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{})
	if err != nil {
		return err
	}
	defer enc.Release()
	if err := enc.EncodeStream(ctx, nil); err != nil {
		return err
	}
	blob, err := enc.Detach()
	if err != nil {
		return err
	}
	parked = &retained{buf: blob}
	return nil
}
