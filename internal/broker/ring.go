package broker

import "sync"

// ringChunkSize is the number of queue entries per ring chunk. 64 entries
// keep a chunk around one cache page and make chunk turnover rare at
// streaming depths while bounding the memory a drained queue pins.
const ringChunkSize = 64

// qitem is one ready-queue entry: the shared message plus the per-queue
// delivery state. The redelivered flag lives here rather than on the
// Message because fanout routing shares one message instance across every
// matched queue — requeueing on one queue must not flag the others. The
// segment-log offset lives here for the same reason: the same message
// fanned out to two durable queues has a distinct offset in each queue's
// log (offNone on non-durable queues).
type qitem struct {
	msg         *Message
	off         uint64
	redelivered bool
}

// ringChunk is one fixed block of queue slots, occupied in [start, end).
// Chunks are singly linked head to tail and never contain holes.
type ringChunk struct {
	next       *ringChunk
	start, end int
	items      [ringChunkSize]qitem
}

// ringChunkPool recycles chunks across queues so drop-head churn and
// depth oscillation run without heap growth.
var ringChunkPool = sync.Pool{New: func() any { return new(ringChunk) }}

func newRingChunk(at int) *ringChunk {
	c := ringChunkPool.Get().(*ringChunk)
	c.next = nil
	c.start, c.end = at, at
	return c
}

// msgRing is a chunked ring deque of queue entries: O(1) pushFront (nack
// and teardown requeues), pushBack (publishes), and popFront (delivery,
// drop-head eviction), with stable memory under churn — the slice-based
// predecessor front-inserted in O(n) and re-compacted its whole backing
// array under drop-head pressure. The last chunk stays resident so a
// queue oscillating around empty reuses it without touching the pool.
type msgRing struct {
	head, tail *ringChunk
	n          int
}

func (r *msgRing) len() int { return r.n }

// reserve gives an unused ring its resident chunk ahead of the first push,
// so that push allocates nothing on the message path.
func (r *msgRing) reserve() {
	if r.head == nil {
		r.head = newRingChunk(0)
		r.tail = r.head
	}
}

// pushBack appends an entry at the tail.
func (r *msgRing) pushBack(it qitem) {
	t := r.tail
	switch {
	case t == nil:
		t = newRingChunk(0)
		r.head, r.tail = t, t
	case t.start == t.end:
		// Empty resident chunk (ring is empty): reposition for back growth.
		t.start, t.end = 0, 0
	case t.end == ringChunkSize:
		nc := newRingChunk(0)
		t.next = nc
		r.tail, t = nc, nc
	}
	t.items[t.end] = it
	t.end++
	r.n++
}

// pushFront prepends an entry at the head (requeue: the entry must be the
// next one delivered).
func (r *msgRing) pushFront(it qitem) {
	h := r.head
	switch {
	case h == nil:
		h = newRingChunk(ringChunkSize)
		r.head, r.tail = h, h
	case h.start == h.end:
		// Empty resident chunk: reposition for front growth.
		h.start, h.end = ringChunkSize, ringChunkSize
	case h.start == 0:
		nc := newRingChunk(ringChunkSize)
		nc.next = h
		r.head, h = nc, nc
	}
	h.start--
	h.items[h.start] = it
	r.n++
}

// popFront removes and returns the head entry. The ring must be
// non-empty (callers check len, as the slice predecessor's callers did).
func (r *msgRing) popFront() qitem {
	h := r.head
	it := h.items[h.start]
	h.items[h.start] = qitem{} // don't pin the message
	h.start++
	r.n--
	if h.start == h.end && h.next != nil {
		// Drained interior chunk: advance and recycle. The final chunk
		// stays resident for the next push.
		r.head = h.next
		ringChunkPool.Put(h)
	}
	return it
}
