package amqp

import (
	"fmt"

	"ds2hpc/internal/wire"
)

// inbound is a channel's receive core: it assembles each content-bearing
// method (basic.deliver, basic.get-ok, basic.return) with its header and
// body frames, decides whether the body lives on a pooled loan or on the
// heap, and keeps the loans of the deliveries the application holds for
// the current transport epoch. It does no I/O, takes no lock and never
// calls the pool: the channel drives it under mu, lends it the buffers
// header asks for, and hands the ones it lets go (out) back.
//
// Every loan leaves exactly once. It is released when a settle of its own
// epoch covers it, or when its assembly is cut off, fails or cannot be
// delivered; it is abandoned when a cut or close finds it held by the
// application, which may still read the body.
type inbound struct {
	epoch  uint64 // the transport epoch the held loans belong to
	closed bool

	cur    content // under assembly, from the channel's slots
	manual bool    // cur is a delivery to a manual-ack consumer
	loan   *[]byte // backs cur's body when it is pooled

	held map[uint64]*[]byte // delivery tag → the loan its body is on

	release, abandon []*[]byte // let go since the last out; reused
}

// content is one message: its method (basic.deliver, basic.get-ok or
// basic.return), header and body. The header is nil until it arrives.
type content struct {
	method wire.Method
	header *wire.ContentHeader
	body   []byte
}

// begin starts assembling the content of method m; manual says m is a
// delivery to a manual-ack consumer, whose ack is the release point a
// pooled body needs. An assembly in progress is cut off.
func (in *inbound) begin(m wire.Method, manual bool) {
	in.drop()
	in.cur.method, in.manual = m, manual
}

// header sizes the body of the method under assembly from h. A manual-ack
// delivery's body goes on a buffer from lend, presized from BodySize;
// everything else gets a heap body whose ownership passes to the
// receiver. A BodySize past wire.MaxBodyBytes is an error before any
// buffer is sized from it. A header with no method of its own cuts the
// assembly off and is ignored, and one declaring no body completes the
// content at once.
func (in *inbound) header(h *wire.ContentHeader, lend func(int) *[]byte) (content, bool, *Error) {
	if h.BodySize > wire.MaxBodyBytes {
		in.drop()
		return content{}, false, &Error{Code: wire.ReplyFrameError,
			Reason: fmt.Sprintf("content header declares %d body bytes, limit %d", h.BodySize, wire.MaxBodyBytes)}
	}
	if in.cur.method == nil || in.cur.header != nil {
		in.drop()
		return content{}, false, nil
	}
	in.cur.header = h
	if in.manual && h.BodySize > 0 {
		in.loan = lend(int(h.BodySize))
		in.cur.body = (*in.loan)[:0]
	} else {
		in.cur.body = make([]byte, 0, h.BodySize)
	}
	return in.body(nil) // completes a body of none
}

// body appends one body frame to the body under assembly. A frame that
// carries more than the header left to come would grow the body off its
// loan and hand the application a message longer than its header says:
// it fails the assembly with an error.
func (in *inbound) body(b []byte) (content, bool, *Error) {
	h := in.cur.header
	if h == nil {
		return content{}, false, nil
	}
	if left := h.BodySize - uint64(len(in.cur.body)); uint64(len(b)) > left {
		in.drop()
		return content{}, false, &Error{Code: wire.ReplyFrameError,
			Reason: fmt.Sprintf("body frame of %d bytes overruns declared body size (%d left)", len(b), left)}
	}
	in.cur.body = append(in.cur.body, b...)
	if uint64(len(in.cur.body)) < h.BodySize {
		return content{}, false, nil
	}
	return in.complete()
}

// complete hands the assembled content out. A pooled body's loan is now
// the application's, held under the delivery's tag until a settle of this
// epoch; one completing after close cannot be delivered and is released.
// A tag the broker reused within the epoch abandons the loan it held.
func (in *inbound) complete() (content, bool, *Error) {
	c := in.cur
	if in.loan != nil && !in.closed {
		tag := c.method.(*wire.BasicDeliver).DeliveryTag
		if old := in.held[tag]; old != nil {
			in.abandon = append(in.abandon, old)
		}
		in.held[tag] = in.loan
		in.loan = nil
	}
	in.drop()
	return c, !in.closed, nil
}

// drop ends the assembly in progress; its loan was never handed out, so
// it is released.
func (in *inbound) drop() {
	if in.loan != nil {
		in.release = append(in.release, in.loan)
	}
	in.cur, in.manual, in.loan = content{}, false, nil
}

// settle releases the loans a resolution of epoch's deliveries covers:
// tag's alone, or with multiple every one up to tag (all of them for tag
// 0). A settle from an older epoch frees nothing: the broker requeued its
// deliveries, and the cut abandoned their loans.
func (in *inbound) settle(epoch, tag uint64, multiple bool) {
	if epoch != in.epoch {
		return
	}
	if !multiple {
		if p := in.held[tag]; p != nil {
			in.release = append(in.release, p)
			delete(in.held, tag)
		}
		return
	}
	for t, p := range in.held {
		if t <= tag || tag == 0 {
			in.release = append(in.release, p)
			delete(in.held, t)
		}
	}
}

// cut ends the transport epoch and starts epoch: the assembly cut off is
// released, and every loan the application holds is abandoned.
func (in *inbound) cut(epoch uint64) {
	in.drop()
	for t, p := range in.held {
		in.abandon = append(in.abandon, p)
		delete(in.held, t)
	}
	in.epoch = epoch
}

// close ends the channel: a cut, after which nothing is delivered.
func (in *inbound) close() {
	in.cut(in.epoch)
	in.closed = true
}

// out returns the loans let go since the last call, to release to the
// pool and to abandon to the garbage collector, in slices valid until
// the next call that lets one go.
func (in *inbound) out() (release, abandon []*[]byte) {
	release, abandon = in.release, in.abandon
	in.release, in.abandon = in.release[:0], in.abandon[:0]
	return release, abandon
}
