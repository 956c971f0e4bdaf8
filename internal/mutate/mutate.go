// Package mutate is a small deterministic mutator for parser tests. The
// native fuzz targets stay the tool of choice where the engine runs, but
// in the project's sandbox `go test -fuzz` stalls after a handful of
// execs, so every target also runs its body over a few thousand mutants
// of its seed corpus inside the plain test pass: same seed, same inputs,
// same verdict on every machine.
//
// The mutations are the ones that have found bugs in length-prefixed
// formats: bit flips, truncation, length-field splices (a boundary value
// written over 4 or 8 bytes), and duplicated, dropped or reordered spans
// — whole corpus entries included, which for a corpus of wire frames is
// frame duplication and reorder.
package mutate

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
)

// Conn is a net.Conn over byte slices, for running the code behind a
// socket on a recorded or mutated stream with no socket: Read serves In
// and then reports io.EOF, Write lands in Out, Close does nothing. No
// other method is reachable.
type Conn struct {
	net.Conn
	In  *bytes.Reader
	Out bytes.Buffer
}

// NewConn returns a Conn that reads input.
func NewConn(input []byte) *Conn { return &Conn{In: bytes.NewReader(input)} }

func (c *Conn) Read(p []byte) (int, error)  { return c.In.Read(p) }
func (c *Conn) Write(p []byte) (int, error) { return c.Out.Write(p) }
func (c *Conn) Close() error                { return nil }

// Allocated returns how many bytes the process allocated while fn ran.
func Allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// boundaries are the values a length or count field breaks at.
var boundaries = []uint64{
	0, 1, 2, 0x7f, 0x80, 0xff, 0x100, 0xffff, 1 << 16, 1<<20 - 1, 1 << 20, 1<<20 + 1,
	1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1 << 33, 1<<63 - 1, 1 << 63, 1<<64 - 1,
}

// Each calls fn with n inputs derived from corpus by seed: every entry
// once as it is, then mutants — an entry, or two or three back to back in
// any order, with up to three mutations stacked on top (at least one on a
// single entry). fn owns the slice it is given.
func Each(seed int64, n int, corpus [][]byte, fn func(input []byte)) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if i < len(corpus) {
			fn(append([]byte(nil), corpus[i]...))
			continue
		}
		entries, mutations := 1, 1+rng.Intn(3)
		if rng.Intn(3) == 0 {
			entries, mutations = 2+rng.Intn(2), rng.Intn(4)
		}
		var in []byte
		for ; entries > 0; entries-- {
			in = append(in, corpus[rng.Intn(len(corpus))]...)
		}
		for ; mutations > 0; mutations-- {
			in = mutateOnce(rng, in)
		}
		fn(in)
	}
}

func mutateOnce(rng *rand.Rand, in []byte) []byte {
	if len(in) == 0 {
		return append(in, byte(rng.Intn(256)))
	}
	at := rng.Intn(len(in))
	switch rng.Intn(8) {
	case 0, 1: // bit flip
		in[at] ^= 1 << rng.Intn(8)
	case 2: // byte overwrite
		in[at] = byte(rng.Intn(256))
	case 3: // truncation
		in = in[:at]
	case 4: // 8-byte length splice
		if v := boundaries[rng.Intn(len(boundaries))]; at+8 <= len(in) {
			binary.LittleEndian.PutUint64(in[at:], v+uint64(rng.Intn(3))-1)
		}
	case 5: // 4-byte length splice
		if v := boundaries[rng.Intn(len(boundaries))]; at+4 <= len(in) {
			binary.LittleEndian.PutUint32(in[at:], uint32(v)+uint32(rng.Intn(3))-1)
		}
	case 6: // duplicate a span in place
		end := at + 1 + rng.Intn(len(in)-at)
		in = append(in[:end:end], in[at:]...)
	case 7: // drop a span
		end := at + 1 + rng.Intn(len(in)-at)
		in = append(in[:at], in[end:]...)
	}
	return in
}
