package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
)

// kind is the messaging pattern a session drives.
type kind int

const (
	// workSharing: one queue, credit returns to the producer in-process.
	workSharing kind = iota
	// feedback: one queue, the consumer publishes a reply per message and
	// the reply is the credit; latency is the round trip.
	feedback
	// gather: a fanout exchange over gatherParts durable queues; every
	// part replies and a message completes on its last reply.
	gather
)

const gatherParts = 4

// ringSize bounds the in-flight window: per-message state (send time,
// reply count) lives in rings indexed by sequence number.
const (
	ringSize = 1024
	ringMask = ringSize - 1
)

// phaseTimeout is the watchdog on one phase. A lost message would leave a
// closed loop waiting forever; instead the connections are closed, the
// phase reports an error and the run exits non-zero.
const phaseTimeout = 60 * time.Second

// leg is how one client connection reaches its broker.
type leg struct {
	url string
	cfg amqp.Config
}

// faults counts failed operations by cause. Any non-zero total fails the
// run; the split is printed so the cause is named.
type faults struct {
	nacked, returned, seqGap, duplicate, badLen, badID, badCRC, badReply atomic.Int64
}

func (f *faults) total() int64 {
	return f.nacked.Load() + f.returned.Load() + f.seqGap.Load() + f.duplicate.Load() +
		f.badLen.Load() + f.badID.Load() + f.badCRC.Load() + f.badReply.Load()
}

func (f *faults) String() string {
	return fmt.Sprintf("nacked=%d returned=%d seq_gap=%d duplicate=%d bad_len=%d bad_id=%d bad_crc=%d bad_reply=%d",
		f.nacked.Load(), f.returned.Load(), f.seqGap.Load(), f.duplicate.Load(),
		f.badLen.Load(), f.badID.Load(), f.badCRC.Load(), f.badReply.Load())
}

func (f *faults) body(bf bodyFault) {
	switch bf {
	case bodyBadLen:
		f.badLen.Add(1)
	case bodyBadID:
		f.badID.Add(1)
	case bodyBadCRC:
		f.badCRC.Add(1)
	}
}

// order records a sequence check: anything but the expected number is a
// gap (messages missing) or a duplicate / reordering.
func (f *faults) order(got, want uint64) {
	if got > want {
		f.seqGap.Add(1)
	} else if got < want {
		f.duplicate.Add(1)
	}
}

// stream is one consumed queue on the consumer connection.
type stream struct {
	ch         *amqp.Channel
	deliveries <-chan amqp.Delivery
	part       int
}

// settle returns once the broker has processed everything written on ch
// so far. AMQP has no acknowledgement of an ack, and a connection torn
// down right behind its last basic.ack can lose it (the message is then
// requeued and its pooled body never released); a synchronous call on
// the same channel is answered only after the frames before it, so it
// serves as the barrier. Re-issuing the channel's own prefetch changes
// nothing.
func settle(ch *amqp.Channel, prefetch int) error {
	if err := ch.Qos(prefetch, 0, false); err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	return nil
}

// session is one pair of live connections — one producer, one consumer —
// with its topology declared, ready to run phases. It is the whole load
// generator: the producer runs on the caller's goroutine and each
// consumed queue on one more, so a work-sharing session is two
// goroutines on two connections.
type session struct {
	name string
	kind kind

	prod, cons *amqp.Connection
	pub        *amqp.Channel
	exchange   string
	key        string
	replyTo    string
	mode       uint8

	confirms chan amqp.Confirmation
	returns  chan amqp.Return
	rep      *amqp.Channel // reply consumer on the producer connection
	replies  <-chan amqp.Delivery
	streams  []stream
	credit   chan struct{}
	parts    int
	maxW     int

	seq       uint64 // next message sequence number
	published uint64 // publishes so far on pub: confirm tags continue from it
	repSeen   int    // replies received since the last reply ack

	sendNs    [ringSize]atomic.Int64
	partCount [ringSize]uint8
	expect    [gatherParts]uint64

	lats   []int64
	faults faults

	dead     chan struct{}
	deadOnce sync.Once
}

// topology names what a session declares. maxW sizes prefetch windows.
type topology struct {
	kind    kind
	queues  []string // work queue(s); gather uses gatherParts of them
	reply   string   // reply / gather queue
	fanout  string   // gather's exchange
	durable bool
	maxW    int
}

// openSession dials both legs and declares the topology. Every declare
// goes through the producer connection (it lands on the same broker node
// as the consumer's, by construction of the queue names), then the
// consumer connection subscribes.
func openSession(name string, prodLeg, consLeg leg, topo topology) (*session, error) {
	s := &session{name: name, kind: topo.kind, maxW: topo.maxW, dead: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.prod, err = amqp.DialConfig(prodLeg.url, prodLeg.cfg); err != nil {
		return nil, fmt.Errorf("%s: producer connect: %w", name, err)
	}
	if s.cons, err = amqp.DialConfig(consLeg.url, consLeg.cfg); err != nil {
		return nil, fmt.Errorf("%s: consumer connect: %w", name, err)
	}
	if s.pub, err = s.prod.Channel(); err != nil {
		return nil, err
	}
	for _, q := range topo.queues {
		if _, err := s.pub.QueueDeclare(q, topo.durable, false, false, false, nil); err != nil {
			return nil, fmt.Errorf("%s: declare %s: %w", name, q, err)
		}
	}
	switch topo.kind {
	case workSharing:
		s.key = topo.queues[0]
		// Buffered to the window, so returning a credit never blocks.
		s.credit = make(chan struct{}, topo.maxW)
	case feedback:
		s.key, s.parts = topo.queues[0], 1
	case gather:
		s.exchange, s.parts = topo.fanout, gatherParts
		if err := s.pub.ExchangeDeclare(topo.fanout, "fanout", topo.durable, false, false, false, nil); err != nil {
			return nil, fmt.Errorf("%s: declare exchange: %w", name, err)
		}
		for _, q := range topo.queues {
			if err := s.pub.QueueBind(q, "", topo.fanout, false, nil); err != nil {
				return nil, fmt.Errorf("%s: bind %s: %w", name, q, err)
			}
		}
	}
	if topo.durable {
		s.mode = 2
	}
	if err := s.pub.Confirm(false); err != nil {
		return nil, err
	}
	// Confirms and returns are drained by the producer whenever it blocks,
	// which happens at least once per window; four windows of slack keep
	// the connection's read loop from ever waiting on these channels.
	s.confirms = s.pub.NotifyPublish(make(chan amqp.Confirmation, 4*topo.maxW+64))
	s.returns = s.pub.NotifyReturn(make(chan amqp.Return, 4*topo.maxW+64))

	if s.parts > 0 {
		s.replyTo = topo.reply
		if s.rep, err = s.prod.Channel(); err != nil {
			return nil, err
		}
		if _, err := s.rep.QueueDeclare(topo.reply, false, false, false, false, nil); err != nil {
			return nil, fmt.Errorf("%s: declare %s: %w", name, topo.reply, err)
		}
		if err := s.rep.Qos(topo.maxW*s.parts, 0, false); err != nil {
			return nil, err
		}
		if s.replies, err = s.rep.Consume(topo.reply, "", false, false, false, false, nil); err != nil {
			return nil, err
		}
	}
	for i, q := range topo.queues {
		ch, err := s.cons.Channel()
		if err != nil {
			return nil, err
		}
		if err := ch.Qos(topo.maxW, 0, false); err != nil {
			return nil, err
		}
		d, err := ch.Consume(q, "", false, false, false, false, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: consume %s: %w", name, q, err)
		}
		s.streams = append(s.streams, stream{ch: ch, deliveries: d, part: i})
	}
	ok = true
	return s, nil
}

// kill closes both connections so every blocked receive wakes up.
func (s *session) kill() {
	s.deadOnce.Do(func() {
		close(s.dead)
		s.close()
	})
}

func (s *session) close() {
	if s.prod != nil {
		s.prod.Close()
	}
	if s.cons != nil {
		s.cons.Close()
	}
}

// phase is one timed (or warm-up) pass of n messages at window w.
type phase struct {
	n, w int
	// warm marks a pass whose every message gets the full CRC and whose
	// numbers are discarded.
	warm bool
	// tr, when set, records spans for one message in traceEvery.
	tr *tracer
}

// result is what one phase measured.
type result struct {
	n       int
	elapsed time.Duration
	cpu     time.Duration
	lats    []int64 // per-message latency, valid until the next phase
}

func (r result) msgsPerSec() float64  { return float64(r.n) / r.elapsed.Seconds() }
func (r result) cpuUsPerMsg() float64 { return float64(r.cpu.Microseconds()) / float64(r.n) }

var errSessionDead = errors.New("session closed (watchdog, or a peer hung up)")

// run drives one phase to completion: n messages published, delivered,
// verified, acknowledged and confirmed. The clock covers exactly that.
func (s *session) run(pl *pool, ph phase) (result, error) {
	if ph.w > cap(s.credit) && s.kind == workSharing {
		return result{}, fmt.Errorf("%s: window %d exceeds the declared maximum %d", s.name, ph.w, cap(s.credit))
	}
	first := s.seq
	s.seq += uint64(ph.n)
	if cap(s.lats) < ph.n {
		s.lats = make([]int64, ph.n)
	}
	lats := s.lats[:ph.n]
	for i := range s.expect {
		s.expect[i] = first
	}
	if ph.tr != nil {
		ph.tr.begin(first, ph.n)
	}
	watchdog := time.AfterFunc(phaseTimeout, s.kill)
	defer watchdog.Stop()

	errs := make(chan error, len(s.streams)+1)
	var wg sync.WaitGroup
	t0, c0 := now(), cpuTime()
	for i := range s.streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			if err := s.consume(st, pl, ph, first, lats); err != nil {
				errs <- err
				s.kill()
			}
		}(&s.streams[i])
	}
	if err := s.produce(pl, ph, first, lats); err != nil {
		errs <- err
		s.kill()
	}
	wg.Wait()
	res := result{n: ph.n, elapsed: time.Duration(now() - t0), cpu: cpuTime() - c0, lats: lats}
	if ph.tr != nil {
		ph.tr.end(res.elapsed)
	}
	select {
	case err := <-errs:
		return res, fmt.Errorf("%s: %w", s.name, err)
	default:
		return res, nil
	}
}

// produce is the producer half. The window gates on delivery (credits),
// not on publisher confirms: the broker confirms on enqueue, so a
// confirm-gated producer outruns the consumer and latency turns into
// queue depth. Confirms stay on and are checked — a nack or a return is a
// failed operation — they just do not pace the loop.
func (s *session) produce(pl *pool, ph phase, first uint64, lats []int64) error {
	credits, sent, done, confirmed := ph.w, 0, 0, 0
	tagBase := s.published
	repAckEvery := ph.w * s.parts / 4
	if repAckEvery < 1 {
		repAckEvery = 1
	}
	tr := ph.tr
	var waited int64
	for done < ph.n || confirmed < ph.n {
		for credits > 0 && sent < ph.n {
			seq := first + uint64(sent)
			body := pl.stamp(seq)
			t := now()
			s.sendNs[seq&ringMask].Store(t)
			err := s.pub.Publish(s.exchange, s.key, true, false, amqp.Publishing{
				Body: body, ReplyTo: s.replyTo, DeliveryMode: s.mode,
			})
			if err != nil {
				return fmt.Errorf("publish: %w", err)
			}
			if tr != nil {
				tr.published(sent, seq, waited, t, now())
				waited = 0
			}
			credits--
			sent++
			s.published++
		}
		var t int64
		starved := tr != nil && sent < ph.n
		if starved {
			t = now()
		}
		select {
		case <-s.credit:
			credits++
			done++
		case d, ok := <-s.replies:
			if !ok {
				return errSessionDead
			}
			if s.reply(d, first, lats) {
				credits++
				done++
			}
			s.repSeen++
			if s.repSeen >= repAckEvery || done == ph.n {
				s.repSeen = 0
				if err := d.Ack(true); err != nil {
					return fmt.Errorf("reply ack: %w", err)
				}
			}
		case c, ok := <-s.confirms:
			if !ok {
				return errSessionDead
			}
			confirmed++
			if !c.Ack {
				s.faults.nacked.Add(1)
			}
			if tr != nil {
				tr.confirmed(int(c.DeliveryTag-tagBase)-1, now())
			}
		case <-s.returns:
			s.faults.returned.Add(1)
		case <-s.dead:
			return errSessionDead
		}
		if starved && credits > 0 {
			waited += now() - t
		}
	}
	if s.rep != nil {
		return settle(s.rep, s.maxW*s.parts)
	}
	return nil
}

// reply handles one feedback / gather reply and reports whether it
// completed a message. Each part's replies arrive in order (one queue,
// one consumer channel, one reply queue), which is checked.
func (s *session) reply(d amqp.Delivery, first uint64, lats []int64) bool {
	seq, part, ok := parseReply(d.Body)
	if !ok || part >= s.parts || seq < first || seq-first >= uint64(len(lats)) {
		s.faults.badReply.Add(1)
		return false
	}
	if seq != s.expect[part] {
		s.faults.order(seq, s.expect[part])
	}
	s.expect[part] = seq + 1
	slot := seq & ringMask
	s.partCount[slot]++
	if int(s.partCount[slot]) < s.parts {
		return false
	}
	s.partCount[slot] = 0
	lats[seq-first] = now() - s.sendNs[slot].Load()
	return true
}

// consume is the consumer half for one queue: receive, verify, return the
// credit (in-process, or as the pattern's reply message), acknowledge in
// multiple=true batches of a quarter window.
func (s *session) consume(st *stream, pl *pool, ph phase, first uint64, lats []int64) error {
	ackEvery := ph.w / 4
	if ackEvery < 1 {
		ackEvery = 1
	}
	var replyBuf [replySize]byte
	expect := first
	tr := ph.tr
	if st.part != 0 {
		tr = nil // one stream's view is enough; the parts are symmetric
	}
	var idleFrom int64
	if tr != nil {
		idleFrom = now()
	}
	for i := 0; i < ph.n; i++ {
		d, ok := <-st.deliveries
		if !ok {
			return errSessionDead
		}
		t := now()
		seq, bf := pl.check(d.Body, ph.warm)
		if bf != bodyOK {
			s.faults.body(bf)
		}
		if bf != bodyBadLen {
			if seq != expect {
				s.faults.order(seq, expect)
			}
			expect = seq + 1
		}
		if s.parts == 0 {
			if k := seq - first; k < uint64(len(lats)) {
				lats[k] = t - s.sendNs[seq&ringMask].Load()
			}
			s.credit <- struct{}{}
		} else {
			putReply(replyBuf[:], seq, st.part)
			if err := st.ch.Publish("", d.ReplyTo, false, false, amqp.Publishing{Body: replyBuf[:]}); err != nil {
				return fmt.Errorf("reply publish: %w", err)
			}
		}
		var tp int64
		if tr != nil {
			tp = now()
			tr.received(int(seq-first), idleFrom, t, tp)
		}
		if (i+1)%ackEvery == 0 || i == ph.n-1 {
			if err := d.Ack(true); err != nil {
				return fmt.Errorf("ack: %w", err)
			}
			if tr != nil {
				tr.acked(int(seq-first), tp, now())
			}
		}
		if tr != nil {
			idleFrom = now()
		}
	}
	return settle(st.ch, s.maxW)
}
