package broker

import (
	"cmp"
	"slices"
)

// outbound is a channel's delivery core: every delivery the channel has
// written to a manual-ack consumer or basic.get that its client has not
// settled yet. It does no I/O and takes no lock; srvChannel drives it
// under ch.mu and applies the work it returns (applySettled) outside.
//
// Every delivery leaves exactly once: by the first settle that covers its
// tag, or by teardown. Delivery tags are monotonic per channel, so q holds
// the outstanding deliveries in tag order and a tag is found by binary
// search. A settled entry keeps only its tag until it is swept: from the
// head as soon as it gets there, and from anywhere once more than half of
// q is settled, so q stays within twice the number outstanding even while
// one early delivery is held forever.
type outbound struct {
	q    []outEntry
	head int           // q[:head] is settled
	live int           // entries in q[head:] not yet settled
	out  []settleGroup // settle's result, reused
}

// outEntry is one delivery awaiting settlement; msg is nil once settled.
type outEntry struct {
	tag   uint64
	queue *Queue
	cons  *consumer // nil for basic.get deliveries, which hold no credit
	msg   *Message  // the reference the queue handed over with the delivery
	off   uint64    // segment-log offset (offNone on transient queues)
}

// settleGroup is what one settle leaves for one (queue, consumer) pair:
// a credit per message back to cons, unless it is nil, and the messages
// with their offsets, in delivery-tag order, either back to the head of
// the queue or released with their offsets committed.
type settleGroup struct {
	queue   *Queue
	cons    *consumer
	ack     bool // credit comes back as acknowledgements (AckN), else ReleaseN
	requeue bool // msgs go back to the queue (RequeueAll), else released (CommitAll)
	msgs    []*Message
	offs    []uint64 // parallel to msgs
}

// issue records a delivery whose tag is above every tag issued before.
func (o *outbound) issue(tag uint64, q *Queue, c *consumer, m *Message, off uint64) {
	if len(o.q) == cap(o.q) && o.live < len(o.q) {
		o.compact() // make room from settled entries before growing
	}
	o.q = append(o.q, outEntry{tag: tag, queue: q, cons: c, msg: m, off: off})
	o.live++
}

// settle resolves delivery tag or, with multiple, every delivery up to it
// (all of them when tag is 0 or past the last one): acked, requeued, or
// discarded when neither. A tag that is not outstanding resolves nothing.
// The work comes back per (queue, consumer) in a slice valid until the
// next settle.
func (o *outbound) settle(tag uint64, multiple, ack, requeue bool) []settleGroup {
	for i := range o.out {
		clear(o.out[i].msgs)
		o.out[i] = settleGroup{msgs: o.out[i].msgs[:0], offs: o.out[i].offs[:0]}
	}
	o.out = o.out[:0]
	pending := o.q[o.head:]
	hi, found := slices.BinarySearchFunc(pending, tag, func(e outEntry, t uint64) int { return cmp.Compare(e.tag, t) })
	lo := hi
	if found {
		hi++
	}
	if multiple {
		lo = 0
		if tag == 0 {
			hi = len(pending)
		}
	}
	for i := lo; i < hi; i++ {
		if pending[i].msg != nil {
			o.out = o.take(o.out, &pending[i], ack, requeue)
		}
	}
	for o.head < len(o.q) && o.q[o.head].msg == nil {
		o.head++
	}
	if len(o.q)-o.live > o.live {
		o.compact()
	}
	return o.out
}

// teardown takes every delivery still outstanding out of the core, to be
// requeued, grouped per (queue, consumer) in delivery-tag order. The
// groups are a slice of their own, not settle's: a server close tears a
// channel down from another goroutine while its serve goroutine may still
// be applying a settle.
func (o *outbound) teardown() []settleGroup {
	var gs []settleGroup
	for i := o.head; i < len(o.q); i++ {
		if o.q[i].msg != nil {
			gs = o.take(gs, &o.q[i], false, true)
		}
	}
	o.q, o.head = nil, 0
	return gs
}

// take settles e into gs, in the group of its (queue, consumer).
func (o *outbound) take(gs []settleGroup, e *outEntry, ack, requeue bool) []settleGroup {
	i := 0
	for i < len(gs) && (gs[i].queue != e.queue || gs[i].cons != e.cons) {
		i++
	}
	if i == len(gs) {
		gs = slices.Grow(gs, 1)[:i+1]
		gs[i].queue, gs[i].cons, gs[i].ack, gs[i].requeue = e.queue, e.cons, ack, requeue
	}
	g := &gs[i]
	g.msgs = append(g.msgs, e.msg)
	g.offs = append(g.offs, e.off)
	*e = outEntry{tag: e.tag}
	o.live--
	return gs
}

// compact slides the outstanding entries down over the settled ones.
func (o *outbound) compact() {
	n := 0
	for _, e := range o.q[o.head:] {
		if e.msg != nil {
			o.q[n] = e
			n++
		}
	}
	clear(o.q[n:])
	o.q, o.head = o.q[:n], 0
}
