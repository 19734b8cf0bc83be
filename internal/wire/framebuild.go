package wire

import (
	"encoding/binary"
	"io"
	"net"

	"ds2hpc/internal/telemetry"
)

// Frame building: hot-path senders encode complete frames — header, payload
// and frame-end — directly into one Writer buffer and emit the whole batch
// with a single Write call, instead of one write syscall per frame section.
// Effectiveness is observable through the telemetry registry:
//
//	wire.frames_coalesced  frames that shared a Write with other frames
//	wire.coalesced_writes  batched Write calls issued via FlushFrames

var (
	framesCoalesced = telemetry.Default.Counter("wire.frames_coalesced")
	coalescedWrites = telemetry.Default.Counter("wire.coalesced_writes")
)

// netBufs keeps the net import out of the pure-codec file while letting
// Writer hold a net.Buffers scratch field.
type netBufs = net.Buffers

// StartFrame begins a frame of the given type, leaving the 32-bit payload
// size zero until EndFrame patches it. It returns the payload start offset
// to pass to EndFrame. Between the two calls the caller appends the frame
// payload with the Writer's encoding methods.
func (w *Writer) StartFrame(ftype byte, channel uint16) int {
	w.Octet(ftype)
	w.Short(channel)
	w.Long(0)
	return len(w.buf)
}

// EndFrame patches the payload size of the frame begun at payloadStart and
// appends the frame-end octet.
func (w *Writer) EndFrame(payloadStart int) {
	size := len(w.buf) - payloadStart
	binary.BigEndian.PutUint32(w.buf[payloadStart-4:payloadStart], uint32(size))
	w.Octet(FrameEnd)
}

// AppendRawFrame appends one complete frame with a verbatim payload.
func (w *Writer) AppendRawFrame(ftype byte, channel uint16, payload []byte) {
	off := w.StartFrame(ftype, channel)
	w.buf = append(w.buf, payload...)
	w.EndFrame(off)
}

// AppendMethodFrame appends one complete method frame, encoding the method
// arguments in place (no intermediate payload slice).
func (w *Writer) AppendMethodFrame(channel uint16, m Method) {
	off := w.StartFrame(FrameMethod, channel)
	c, id := m.ID()
	w.Short(c)
	w.Short(id)
	m.Marshal(w)
	w.EndFrame(off)
}

// AppendContentFrames appends the full method + content-header + body frame
// sequence for one content-bearing basic-class method (basic.publish,
// basic.deliver, basic.get-ok, basic.return), splitting the body at
// frameMax. It returns the number of frames appended.
func (w *Writer) AppendContentFrames(channel uint16, m Method, props *Properties, body []byte, frameMax uint32) int {
	w.AppendMethodFrame(channel, m)
	off := w.StartFrame(FrameHeader, channel)
	marshalContentHeader(w, ClassBasic, uint64(len(body)), props)
	w.EndFrame(off)
	frames := 2
	max := int(frameMax)
	if max <= 0 {
		max = DefaultFrameMax
	}
	for start := 0; start < len(body); start += max {
		end := start + max
		if end > len(body) {
			end = len(body)
		}
		w.AppendRawFrame(FrameBody, channel, body[start:end])
		frames++
	}
	return frames
}

// zcMinBorrow is the smallest body chunk AppendContentFramesZC borrows
// instead of copying. Below it the memcpy is cheaper than an extra iovec
// entry; above it the copy dominates and the chunk rides the vectored
// write in place. What a borrow means on a destination without writev is
// FlushFrames' decision (gatherMax), not this one's.
const zcMinBorrow = 2048

// AppendContentFramesZC is AppendContentFrames with zero-copy bodies:
// body chunks of at least zcMinBorrow bytes are recorded as borrow
// segments instead of being copied into the Writer's buffer, and
// FlushFrames stitches buffer and borrowed slices back together on the
// way out. The caller must keep body valid and unmodified until the
// frames are flushed (delivery paths hold the message's refcount across
// the flush, a publish flushes before Publish returns).
func (w *Writer) AppendContentFramesZC(channel uint16, m Method, props *Properties, body []byte, frameMax uint32) int {
	w.AppendMethodFrame(channel, m)
	off := w.StartFrame(FrameHeader, channel)
	marshalContentHeader(w, ClassBasic, uint64(len(body)), props)
	w.EndFrame(off)
	frames := 2
	max := int(frameMax)
	if max <= 0 {
		max = DefaultFrameMax
	}
	for start := 0; start < len(body); start += max {
		end := start + max
		if end > len(body) {
			end = len(body)
		}
		chunk := body[start:end]
		if len(chunk) < zcMinBorrow {
			w.AppendRawFrame(FrameBody, channel, chunk)
		} else {
			// Frame header into the buffer, chunk borrowed, frame-end
			// octet back in the buffer after the splice point.
			w.Octet(FrameBody)
			w.Short(channel)
			w.Long(uint32(len(chunk)))
			w.segs = append(w.segs, borrowSeg{cut: len(w.buf), ext: chunk})
			w.extLen += len(chunk)
			w.Octet(FrameEnd)
		}
		frames++
	}
	return frames
}

// AppendWriter appends src's frames — its buffer and its borrow segments —
// behind whatever w already holds, so frame sets encoded in writers of
// their own leave in one flush, in append order. The caller has checked
// src.Err; src stays its owner's to recycle, and what src borrowed w now
// borrows too, until w is flushed.
func (w *Writer) AppendWriter(src *Writer) {
	base := len(w.buf)
	w.buf = append(w.buf, src.buf...)
	for _, s := range src.segs {
		w.segs = append(w.segs, borrowSeg{cut: base + s.cut, ext: s.ext})
	}
	w.extLen += src.extLen
}

// gatherMax bounds one gathered write and is the size from which a
// borrowed chunk is written on its own. 64 KiB is one netem pacing chunk
// (netem.DefaultMTU): gathering a whole 256 KiB delivery batch into one
// write cost fb_wan ~4 % of prs.msgs_per_s through netem's pacing, this
// cap was neutral; and a full 128 KiB body frame is far past the point
// where one more write is cheaper than the copy.
const gatherMax = 64 * 1024

// FlushFrames emits every frame accumulated in the Writer, resets the
// buffer, and records the coalescing counters. Everything copied in goes
// out as one Write. With borrowed body segments the destination decides:
// a *net.TCPConn takes buffer ranges and borrowed slices as one writev;
// on anything else (tls.Conn, netem.Conn, a bytes.Buffer) net.Buffers
// would degrade to one Write — one TLS record, one syscall — per piece,
// so the pieces are gathered instead (writeGathered). frames is the
// number of frames in the buffer (counted by the caller or returned from
// AppendContentFrames/AppendContentFramesZC).
func (w *Writer) FlushFrames(dst io.Writer, frames int) error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 && w.extLen == 0 {
		return nil
	}
	var err error
	if len(w.segs) == 0 {
		_, err = dst.Write(w.buf)
	} else {
		iov := w.iov[:0]
		prev := 0
		for _, s := range w.segs {
			if s.cut > prev {
				iov = append(iov, w.buf[prev:s.cut])
				prev = s.cut
			}
			iov = append(iov, s.ext)
		}
		if prev < len(w.buf) {
			iov = append(iov, w.buf[prev:])
		}
		w.iov = iov // keep grown scratch for reuse
		if tcp, ok := dst.(*net.TCPConn); ok {
			w.nb = net.Buffers(iov)
			_, err = w.nb.WriteTo(tcp)
			w.nb = nil // WriteTo re-sliced it; drop so nothing stays pinned
		} else {
			err = w.writeGathered(dst, iov)
		}
	}
	w.buf = w.buf[:0]
	w.dropBorrows()
	coalescedWrites.Inc()
	if frames > 1 {
		framesCoalesced.Add(int64(frames))
	}
	return err
}

// writeGathered writes pieces in order to a destination without writev.
// Pieces under gatherMax are copied into the Writer's scratch and leave
// in writes of at most gatherMax — a 4 or 16 KiB content triplet is one
// Write. A piece of gatherMax or more (a full body frame's chunk) is
// handed to dst as it is, so its bytes are not copied here; only the few
// framing bytes around it are gathered.
func (w *Writer) writeGathered(dst io.Writer, pieces [][]byte) error {
	g := w.gather[:0]
	var err error
	for _, p := range pieces {
		if len(g) > 0 && len(g)+len(p) > gatherMax {
			if _, err = dst.Write(g); err != nil {
				break
			}
			g = g[:0]
		}
		if len(p) >= gatherMax {
			if _, err = dst.Write(p); err != nil {
				break
			}
			continue
		}
		g = append(g, p...)
	}
	if err == nil && len(g) > 0 {
		_, err = dst.Write(g)
	}
	w.gather = g[:0]
	return err
}
