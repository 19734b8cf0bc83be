package amqp

// confirmLog is a channel's publisher-confirm state: it numbers the
// confirm-mode publishes and turns the broker's verdicts back into exactly
// one confirmation per publish. It does no I/O and takes no lock; the
// channel drives it under the locks it already holds (append under writeMu
// and mu, everything else under mu).
//
// A publish takes its client sequence number and its broker tag when its
// frames are appended to the send buffer, so tags follow wire order. The
// broker numbers publishes per transport, so a replay renumbers the
// unresolved publishes 1..k, in sequence order, for the new transport; the
// log keeps each publish's record for that replay only when keep is set
// (a reconnecting connection).
//
// q[head:] is a deque in sequence order of every publish from the oldest
// unresolved one on; q[head] carries tag base+1 and each entry the next
// tag, so a tag indexes the deque directly. A resolved entry leaves it when
// it reaches the head.
type confirmLog struct {
	keep   bool // keep each publish's record for a replay
	lost   bool // the transport is gone: verdicts wait for the replay
	closed bool

	seq  uint64 // the last client sequence number handed out
	base uint64 // every tag at or below it has left the deque
	head int
	q    []logEntry
	out  []uint64 // resolve's result, reused
}

type logEntry struct {
	seq  uint64
	done bool
	pub  *pendingPublish // nil unless keep
}

// pendingPublish is the record a replay republishes.
type pendingPublish struct {
	exchange, key        string
	mandatory, immediate bool
	msg                  Publishing
}

// append tags one publish whose frames are going out now and returns its
// sequence number, or 0 once the log is closed.
func (l *confirmLog) append(p *pendingPublish) uint64 {
	if l.closed {
		return 0
	}
	if len(l.q) == cap(l.q) && l.head >= len(l.q)/2 {
		// At least half the deque is dead: slide the live half down instead
		// of growing, so the deque stays within twice the outstanding count.
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	l.seq++
	e := logEntry{seq: l.seq}
	if l.keep {
		rec := *p
		e.pub = &rec
	}
	l.q = append(l.q, e)
	return l.seq
}

// resolve applies one broker verdict: a single one resolves tag, a
// multiple one every tag up to it. It returns the sequence numbers it newly
// resolves, in order, in a slice valid until the next call. A tag resolved
// before, one not issued on this transport, and any verdict between a cut
// and the replay resolve nothing; after close the deque stays empty.
func (l *confirmLog) resolve(tag uint64, multiple bool) []uint64 {
	l.out = l.out[:0]
	if l.lost || tag <= l.base || tag-l.base > uint64(len(l.q)-l.head) {
		return l.out
	}
	hi := l.head + int(tag-l.base) - 1
	lo := hi
	if multiple {
		lo = l.head
	}
	for i := lo; i <= hi; i++ {
		if e := &l.q[i]; !e.done {
			e.done = true
			l.out = append(l.out, e.seq)
		}
	}
	for l.head < len(l.q) && l.q[l.head].done {
		l.q[l.head] = logEntry{} // drop the record
		l.head++
		l.base++
	}
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return l.out
}

// cut marks the transport lost: its verdicts can no longer arrive, and the
// unresolved publishes wait for the next replay.
func (l *confirmLog) cut() { l.lost = true }

// replay starts a new transport: the unresolved publishes take tags 1..k
// on it in sequence order, and their records (nil unless keep) are
// appended to dst for republishing in that order.
func (l *confirmLog) replay(dst []*pendingPublish) []*pendingPublish {
	n := 0
	for _, e := range l.q[l.head:] {
		if !e.done {
			l.q[n] = e
			n++
			dst = append(dst, e.pub)
		}
	}
	clear(l.q[n:])
	l.q, l.head, l.base, l.lost = l.q[:n], 0, 0, false
	return dst
}

// close ends the log: it drops every publish and takes no more, so
// nothing is resolved after it.
func (l *confirmLog) close() {
	l.closed = true
	l.q, l.head = nil, 0
}
