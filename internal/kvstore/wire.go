package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
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

var (
	errValueTooLarge = errors.New("kvstore: value too large")
	errBadTerminator = errors.New("kvstore: value not terminated by CRLF")
)

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

// readValue fills buf — one exact-size buffer the caller picked — with a
// value and consumes its CRLF terminator.
func readValue(r *bufio.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	var term [2]byte
	if _, err := io.ReadFull(r, term[:]); err != nil {
		return err
	}
	if term != [2]byte{'\r', '\n'} {
		return errBadTerminator
	}
	return nil
}
