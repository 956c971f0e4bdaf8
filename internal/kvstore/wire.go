package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"viper/internal/bufpool"
)

// Wire framing shared by Client and Server. A value travels as
// "<len>\r\n<len bytes>\r\n": the length makes it binary-safe (it may
// hold spaces, CR and LF), the cap bounds what a peer can make the other
// side allocate, and the trailing CRLF is checked so a miscounted value
// is a protocol error instead of a silently shifted stream.

// MaxValueBytes caps the length a peer may announce for one value, in
// either direction. It is far above any checkpoint the system stages
// (tens of MiB) and far below what an unchecked length could claim.
const MaxValueBytes = 1 << 30

// eagerValueBytes is the largest value a reader allocates on the strength
// of its announced length alone (bufpool.ReadAnnounced — transport.TCPLink's
// bound and rule): a larger one grows as its bytes arrive, so a peer cannot
// make the other side allocate more than a small multiple of what it
// actually sent.
const eagerValueBytes = bufpool.EagerBytes

// maxLineBytes caps one protocol line (a command, a length line, a
// reply): the server answers a longer one "-ERR line too long" and closes,
// the client drops the connection.
const maxLineBytes = 64 << 10

var (
	errValueTooLarge = errors.New("kvstore: value too large")
	errBadTerminator = errors.New("kvstore: value not terminated by CRLF")
	errLineTooLong   = errors.New("kvstore: line too long")
)

// readLineCapped reads one line of at most maxLineBytes, without its CRLF.
// Only a line that outgrows r's buffer is accumulated, and never past the
// cap: a longer one is errLineTooLong with the rest of it unread.
func readLineCapped(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		part, err := r.ReadSlice('\n')
		if len(line)+len(part) > maxLineBytes {
			return "", errLineTooLong
		}
		if line = append(line, part...); !errors.Is(err, bufio.ErrBufferFull) {
			return strings.TrimRight(string(line), "\r\n"), err
		}
	}
}

// writeLenLine writes prefix, the decimal n and CRLF. Errors stick to w
// and surface at Flush.
func writeLenLine(w *bufio.Writer, prefix string, n int) {
	var digits [20]byte
	w.WriteString(prefix)
	w.Write(strconv.AppendInt(digits[:0], int64(n), 10))
	w.WriteString("\r\n")
}

// writeValue writes value and its CRLF terminator. A value larger than
// w's buffer passes through to the connection without an intermediate
// copy (bufio hands oversized writes straight to the underlying writer).
func writeValue(w *bufio.Writer, value []byte) {
	w.Write(value)
	w.WriteString("\r\n")
}

// checkValueLen refuses an announced value length over MaxValueBytes,
// before anything is allocated for it.
func checkValueLen(n int) error {
	if n > MaxValueBytes {
		return fmt.Errorf("%w: %d bytes announced, cap is %d", errValueTooLarge, n, MaxValueBytes)
	}
	return nil
}

// readValue reads an n-byte value (bufpool.ReadAnnounced: into buf, n
// bytes the caller already owns, or when buf is nil into a buffer that
// grows as the bytes arrive) and consumes its CRLF terminator.
func readValue(r *bufio.Reader, buf []byte, n int) ([]byte, error) {
	buf, err := bufpool.ReadAnnounced(r, n, buf)
	if err != nil {
		return nil, err
	}
	var term [2]byte
	if _, err := io.ReadFull(r, term[:]); err != nil {
		return nil, err
	}
	if term != [2]byte{'\r', '\n'} {
		return nil, errBadTerminator
	}
	return buf, nil
}
