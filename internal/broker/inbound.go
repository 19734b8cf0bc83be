package broker

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ds2hpc/internal/wire"
)

// inbound is a channel's publish core: it assembles each basic.publish
// with its header and body frames, numbers the confirm-mode publishes,
// and turns their verdicts into the fewest confirm frames that say them
// exactly. It does no I/O and takes no lock; srvChannel drives it under
// ch.mu, from the serve goroutine for everything but the bridged verdicts
// ClusterConfirm brings from a cluster link.
//
// A confirm tag is open from its basic.publish until a verdict resolves
// it, and every verdict is emitted once, by the first flush after it.
// Flush emits in tag order. Before the first open tag each run of like
// verdicts shares one frame, multiple when the run holds more than one: a
// multiple frame claims every tag up to its own that its client has not
// seen resolved, so it may cover no open tag. Behind the first open tag
// every verdict goes out singly. Once torn down the core emits nothing.
type inbound struct {
	confirm bool   // confirm.select received
	closed  bool   // torn down
	seq     uint64 // the last confirm tag handed out

	busy bool    // a publish is under assembly
	cur  publish // the publish under assembly; cur.msg is nil until its header
	size uint64  // the body size cur's header declared

	q   []confirmEntry // the open and the unemitted tags, in tag order
	out []confirmFrame // flush's result, reused
}

// publish is one basic.publish: its method, the message its header and
// body frames build, and its confirm tag (0 outside confirm mode).
type publish struct {
	method wire.BasicPublish
	msg    *Message
	tag    uint64
}

// confirmEntry is a tag flush has yet to emit: open until done, then
// acked, or nacked if nack is set.
type confirmEntry struct {
	tag        uint64
	done, nack bool
}

// confirmFrame is one basic.ack, or basic.nack when nack is set.
type confirmFrame struct {
	tag            uint64
	nack, multiple bool
}

var (
	errCutOff   = errors.New("basic.publish before the previous publish's content completed")
	errNoMethod = errors.New("content header without basic.publish")
	errNoHeader = errors.New("body frame without content header")
	errClosed   = errors.New("publish on a closed channel")
	// errBodyLimit fails the channel, not the connection: the header is
	// well formed, the broker just will not take a body that large.
	errBodyLimit = errors.New("declared body size exceeds limit")
)

// begin starts assembling publish m and, in confirm mode, opens its tag.
// A publish still under assembly makes m a framing error (AMQP 0-9-1
// §4.2.6): the caller ends the connection, and teardown hands back the
// cut-off message. The open tag is never resolved, as its channel is
// gone.
func (in *inbound) begin(m *wire.BasicPublish) error {
	switch {
	case in.closed:
		return errClosed
	case in.busy:
		return errCutOff
	}
	in.busy = true
	in.cur = publish{method: *m}
	if in.confirm {
		in.seq++
		in.cur.tag = in.seq
		in.q = append(in.q, confirmEntry{tag: in.seq})
	}
	return nil
}

// header sizes the publish under assembly from h and creates its message
// with lend (NewMessage), presized to the declared body so every body
// frame appends without reallocating. A BodySize past wire.MaxBodyBytes
// is errBodyLimit before anything is lent. A header declaring no body
// completes the publish at once.
func (in *inbound) header(h *wire.ContentHeader, lend func(exchange, key string, props wire.Properties, size int) *Message) (publish, bool, error) {
	switch {
	case !in.busy || in.cur.msg != nil:
		return publish{}, false, errNoMethod
	case h.BodySize > wire.MaxBodyBytes:
		return publish{}, false, fmt.Errorf("%w: %d bytes, limit %d", errBodyLimit, h.BodySize, wire.MaxBodyBytes)
	}
	in.size = h.BodySize
	in.cur.msg = lend(in.cur.method.Exchange, in.cur.method.RoutingKey, h.Properties, int(h.BodySize))
	return in.body(nil)
}

// body appends one body frame to the publish under assembly and returns
// the publish once its body is complete. A frame past the size its header
// declared is a framing error: appended, it would grow the body off its
// loan and route more bytes than the header says.
func (in *inbound) body(b []byte) (publish, bool, error) {
	if !in.busy || in.cur.msg == nil {
		return publish{}, false, errNoHeader
	}
	if left := in.size - uint64(len(in.cur.msg.Body)); uint64(len(b)) > left {
		return publish{}, false, fmt.Errorf("body frame of %d bytes overruns declared body size %d (%d left)",
			len(b), in.size, left)
	}
	in.cur.msg.AppendBody(b)
	if uint64(len(in.cur.msg.Body)) < in.size {
		return publish{}, false, nil
	}
	p := in.cur
	in.busy, in.cur = false, publish{}
	return p, true, nil
}

// resolve records the verdict on open tag: acked when ok, else nacked. A
// tag that is not open (resolved before, never handed out, or dropped by
// teardown) is left alone.
func (in *inbound) resolve(tag uint64, ok bool) {
	if in.closed {
		return
	}
	i, found := slices.BinarySearchFunc(in.q, tag, func(e confirmEntry, t uint64) int { return cmp.Compare(e.tag, t) })
	if found && !in.q[i].done {
		in.q[i].done, in.q[i].nack = true, !ok
	}
}

// flush emits every verdict recorded since the last flush, as the frames
// the type comment describes, in a slice valid until the next flush. Only
// the open tags stay behind.
func (in *inbound) flush() []confirmFrame {
	in.out = in.out[:0]
	if in.closed {
		return in.out
	}
	prefix := true // no open tag seen yet
	n := 0
	for _, e := range in.q {
		switch last := len(in.out) - 1; {
		case !e.done:
			prefix = false
			in.q[n] = e
			n++
		case prefix && last >= 0 && in.out[last].nack == e.nack:
			in.out[last].tag, in.out[last].multiple = e.tag, true
		default:
			in.out = append(in.out, confirmFrame{tag: e.tag, nack: e.nack})
		}
	}
	in.q = in.q[:n]
	return in.out
}

// teardown closes the core and returns the message of a publish cut off
// mid-assembly, for the caller to release (nil if there is none, or on a
// second teardown). The open tags go with it: no verdict can reach a
// channel that no longer exists.
func (in *inbound) teardown() *Message {
	m := in.cur.msg
	in.closed, in.busy, in.cur, in.q = true, false, publish{}, nil
	return m
}
