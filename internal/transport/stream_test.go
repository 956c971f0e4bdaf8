package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"viper/internal/nn"
	"viper/internal/vformat"
)

func streamTestCheckpoint(seed int64, bytes int) *vformat.Checkpoint {
	rng := rand.New(rand.NewSource(seed))
	elems := bytes / 8
	half := elems / 2
	snap := nn.Snapshot{
		{Name: "a", Shape: []int{half}, Data: make([]float64, half)},
		{Name: "b", Shape: []int{elems - half}, Data: make([]float64, elems-half)},
	}
	for _, nt := range snap {
		for i := range nt.Data {
			nt.Data[i] = rng.NormFloat64()
		}
	}
	return &vformat.Checkpoint{ModelName: "stream", Version: 3, Iteration: 99, TrainLoss: 0.5, Weights: snap}
}

func assertSameWeights(t *testing.T, want, got *vformat.Checkpoint) {
	t.Helper()
	if got.ModelName != want.ModelName || got.Version != want.Version {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("tensor count %d, want %d", len(got.Weights), len(want.Weights))
	}
	for i := range want.Weights {
		w, g := want.Weights[i], got.Weights[i]
		if w.Name != g.Name || len(w.Data) != len(g.Data) {
			t.Fatalf("tensor %d mismatch", i)
		}
		for j := range w.Data {
			if w.Data[j] != g.Data[j] {
				t.Fatalf("tensor %q[%d]: %v != %v", w.Name, j, g.Data[j], w.Data[j])
			}
		}
	}
}

// TestSendCollectChunkedLink streams a checkpoint over an in-memory
// chanConn and assembles it on the other side.
func TestSendCollectChunkedLink(t *testing.T) {
	ckpt := streamTestCheckpoint(1, 256<<10)
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 16 << 10, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	link := make(chanConn, enc.NumChunks()+1)
	defer link.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var got *vformat.Checkpoint
	var recvErr error
	go func() {
		defer wg.Done()
		header, err := link.Recv()
		if err != nil {
			recvErr = err
			return
		}
		got, _, recvErr = CollectChunked(context.Background(), header, nil, link.Recv)
	}()
	if err := SendChunked(context.Background(), link, "stream/v3", enc, 0); err != nil {
		t.Fatalf("SendChunked: %v", err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("CollectChunked: %v", recvErr)
	}
	assertSameWeights(t, ckpt, got)
}

// TestSendCollectChunkedTCP streams over a real TCP loopback connection,
// with the consumer assembling concurrently (true pipelining: chunk N
// decodes while chunk N+1 is still being sent).
func TestSendCollectChunkedTCP(t *testing.T) {
	client, server := tcpPair(t)
	ckpt := streamTestCheckpoint(2, 512<<10)
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()

	var wg sync.WaitGroup
	wg.Add(1)
	var got *vformat.Checkpoint
	var recvErr error
	go func() {
		defer wg.Done()
		header, err := server.Recv()
		if err != nil {
			recvErr = err
			return
		}
		got, _, recvErr = CollectChunked(context.Background(), header, nil, server.Recv)
	}()
	if err := SendChunked(context.Background(), client, "stream/v3", enc, 0); err != nil {
		t.Fatalf("SendChunked: %v", err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("CollectChunked: %v", recvErr)
	}
	assertSameWeights(t, ckpt, got)
}

// TestCollectChunkedTornStream: a foreign frame mid-stream aborts
// assembly with ErrTornStream and hands the frame back.
func TestCollectChunkedTornStream(t *testing.T) {
	ckpt := streamTestCheckpoint(3, 64<<10)
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	link := make(chanConn, enc.NumChunks()+2)
	defer link.Close()
	if err := SendChunked(context.Background(), link, "stream/v3", enc, 0); err != nil {
		t.Fatal(err)
	}
	header, err := link.Recv()
	if err != nil {
		t.Fatal(err)
	}
	interloper := Frame{Key: "other/v4", Payload: []byte("x")}
	recvCount := 0
	recv := func() (Frame, error) {
		recvCount++
		if recvCount == 2 {
			return interloper, nil
		}
		return link.Recv()
	}
	_, foreign, err := CollectChunked(context.Background(), header, nil, recv)
	if !errors.Is(err, ErrTornStream) {
		t.Fatalf("CollectChunked = %v, want ErrTornStream", err)
	}
	if foreign == nil || foreign.Key != interloper.Key {
		t.Fatalf("foreign frame = %+v, want key %q", foreign, interloper.Key)
	}
}

// TestCollectChunkedCorruptChunk: flipping a payload bit in flight is
// caught by the per-chunk CRC.
func TestCollectChunkedCorruptChunk(t *testing.T) {
	ckpt := streamTestCheckpoint(4, 64<<10)
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	link := make(chanConn, enc.NumChunks()+1)
	defer link.Close()
	if err := SendChunked(context.Background(), link, "stream/v3", enc, 0); err != nil {
		t.Fatal(err)
	}
	header, err := link.Recv()
	if err != nil {
		t.Fatal(err)
	}
	recvCount := 0
	recv := func() (Frame, error) {
		f, err := link.Recv()
		recvCount++
		if recvCount == 3 && err == nil {
			f.Payload[len(f.Payload)/2] ^= 0x20
		}
		return f, err
	}
	if _, _, err := CollectChunked(context.Background(), header, nil, recv); !errors.Is(err, vformat.ErrCorruptChunk) {
		t.Fatalf("CollectChunked = %v, want ErrCorruptChunk", err)
	}
}

// TestSendChunkedCancel: cancelling mid-stream stops the send and drains
// the encoder's workers; the receiver sees a torn stream, not a hang.
func TestSendChunkedCancel(t *testing.T) {
	ckpt := streamTestCheckpoint(5, 256<<10)
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 4 << 10, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	link := make(chanConn, enc.NumChunks()+1)
	defer link.Close()
	ctx, cancel := context.WithCancel(context.Background())
	sent := 0
	wrapped := connFunc{
		send: func(f Frame) error {
			sent++
			if sent == 5 {
				cancel()
			}
			return link.Send(f)
		},
	}
	err = SendChunked(ctx, wrapped, "stream/v3", enc, 0)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SendChunked = %v, want context.Canceled", err)
	}
}

// connFunc adapts closures to Conn for tests.
type connFunc struct {
	send func(Frame) error
}

func (c connFunc) Send(f Frame) error   { return c.send(f) }
func (c connFunc) Recv() (Frame, error) { return Frame{}, fmt.Errorf("not implemented") }
func (c connFunc) Close() error         { return nil }

// chanConn is an in-memory Conn whose two ends are one buffered channel:
// Send blocks while the buffer is full, Recv fails once it is closed and
// drained.
type chanConn chan Frame

func (c chanConn) Send(f Frame) error { c <- f; return nil }
func (c chanConn) Close() error       { close(c); return nil }
func (c chanConn) Recv() (Frame, error) {
	f, ok := <-c
	if !ok {
		return Frame{}, ErrClosed
	}
	return f, nil
}
