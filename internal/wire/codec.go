// Package wire implements the binary framing protocol spoken between the
// ds2hpc broker and its clients. The protocol is modeled on AMQP 0-9-1 (the
// wire protocol of RabbitMQ, which the paper uses as its streaming service):
// octet-aligned frames carrying class/method payloads, content headers and
// body segments, with shortstr/longstr/field-table value encodings.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Encoding errors.
var (
	ErrShortStrTooLong = errors.New("wire: short string exceeds 255 bytes")
	ErrBadFrameEnd     = errors.New("wire: missing frame-end octet")
	ErrFrameTooLarge   = errors.New("wire: frame exceeds negotiated frame-max")
)

// Writer encodes protocol primitives into an in-memory buffer which is then
// emitted as a single frame payload. It never fails mid-stream; errors such
// as oversized short strings are reported by the Err method and by Flush.
//
// Large body payloads appended through AppendContentFramesZC are not
// copied into the buffer: the Writer records a borrow segment instead and
// FlushFrames emits buffer ranges and borrowed slices in order — one
// writev on a TCP socket, gathered writes elsewhere. Borrowed slices must
// stay valid and unmodified until the flush.
type Writer struct {
	buf []byte
	err error

	// segs are the borrow points for vectored flushes: emit buf[:cut],
	// then ext, then continue from cut. Cuts are non-decreasing.
	segs   []borrowSeg
	extLen int
	iov    [][]byte // flush scratch, reused across batches
	nb     netBufs  // vectored-write scratch; a field so WriteTo's pointer receiver never escapes a local
	gather []byte   // gathered-write scratch for destinations without writev; at most gatherMax
}

// borrowSeg is one zero-copy splice point in the Writer's output.
type borrowSeg struct {
	cut int // offset into buf after which ext is emitted
	ext []byte
}

// NewWriter returns a Writer with a small pre-allocated buffer.
func NewWriter() *Writer { return &Writer{buf: make([]byte, 0, 64)} }

// Bytes returns the encoded payload. It is only meaningful when no borrow
// segments are pending (method/property encoding never borrows).
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the number of bytes the next flush will emit, including
// borrowed body segments.
func (w *Writer) Len() int { return len(w.buf) + w.extLen }

// Err returns the first encoding error, if any.
func (w *Writer) Err() error { return w.err }

// Reset clears the buffer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.err = nil
	w.dropBorrows()
}

// dropBorrows clears borrow segments and the flush scratch without
// pinning the borrowed slices.
func (w *Writer) dropBorrows() {
	for i := range w.segs {
		w.segs[i].ext = nil
	}
	w.segs = w.segs[:0]
	w.extLen = 0
	for i := range w.iov {
		w.iov[i] = nil
	}
	w.iov = w.iov[:0]
}

// Octet appends a single byte.
func (w *Writer) Octet(b byte) { w.buf = append(w.buf, b) }

// Short appends a big-endian uint16.
func (w *Writer) Short(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// Long appends a big-endian uint32.
func (w *Writer) Long(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// LongLong appends a big-endian uint64.
func (w *Writer) LongLong(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) {
	w.LongLong(math.Float64bits(v))
}

// Bool appends a boolean as a single octet.
func (w *Writer) Bool(v bool) {
	if v {
		w.Octet(1)
	} else {
		w.Octet(0)
	}
}

// ShortStr appends a length-prefixed string of at most 255 bytes.
func (w *Writer) ShortStr(s string) {
	if len(s) > 255 {
		w.err = ErrShortStrTooLong
		s = s[:255]
	}
	w.Octet(byte(len(s)))
	w.buf = append(w.buf, s...)
}

// LongStr appends a 32-bit length-prefixed byte string.
func (w *Writer) LongStr(s []byte) {
	w.Long(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes protocol primitives from a frame payload.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps a payload slice.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return false
	}
	return true
}

// Octet reads a single byte.
func (r *Reader) Octet() byte {
	if !r.need(1) {
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Short reads a big-endian uint16.
func (r *Reader) Short() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v
}

// Long reads a big-endian uint32.
func (r *Reader) Long() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// LongLong reads a big-endian uint64.
func (r *Reader) LongLong() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.LongLong()) }

// Bool reads a boolean octet.
func (r *Reader) Bool() bool { return r.Octet() != 0 }

// internTable maps well-known protocol strings to canonical instances so
// per-message parsing of constant values (content types, exchange kinds,
// standard exchange names) does not allocate. The keyed-by-conversion map
// lookup itself is allocation-free.
var internTable = map[string]string{
	"application/octet-stream": "application/octet-stream",
	"text/plain":               "text/plain",
	"application/json":         "application/json",
	"amq.direct":               "amq.direct",
	"amq.fanout":               "amq.fanout",
	"amq.topic":                "amq.topic",
	"direct":                   "direct",
	"fanout":                   "fanout",
	"topic":                    "topic",
	"PLAIN":                    "PLAIN",
	"en_US":                    "en_US",
}

// ShortStr reads a length-prefixed string of at most 255 bytes.
func (r *Reader) ShortStr() string {
	n := int(r.Octet())
	if !r.need(n) {
		return ""
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	if s, ok := internTable[string(b)]; ok {
		return s
	}
	return string(b)
}

// LongStr reads a 32-bit length-prefixed byte string. The returned slice
// aliases the frame payload; callers that retain it must copy.
func (r *Reader) LongStr() []byte {
	n := int(r.Long())
	if !r.need(n) {
		return nil
	}
	s := r.buf[r.pos : r.pos+n]
	r.pos += n
	return s
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}
