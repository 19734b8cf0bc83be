package broker

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/telemetry"
)

// Broker-wide telemetry probes. Each queue captures its own counter
// shard at construction, so the per-message updates below stay one
// uncontended atomic add even with many queues publishing at once.
var (
	telPublished = telemetry.Default.Counter("broker.published")
	telDelivered = telemetry.Default.Counter("broker.delivered")
	telAcked     = telemetry.Default.Counter("broker.acked")
	telRequeued  = telemetry.Default.Counter("broker.requeued")
	telDepthPeak = telemetry.Default.Watermark("broker.queue_depth_peak")

	// Replay telemetry: records re-delivered from segment logs to
	// cold-attach consumers, and how far those consumers trail the log
	// tail (summed across active replay consumers).
	telReplayed  = telemetry.Default.Counter("broker.replayed")
	telReplayLag = telemetry.Default.Gauge("broker.replay_lag")

	queueSeq atomic.Int64 // round-robin shard assignment for new queues
)

// queueTel is a queue's captured shard set.
type queueTel struct {
	published *telemetry.CounterShard
	delivered *telemetry.CounterShard
	acked     *telemetry.CounterShard
	requeued  *telemetry.CounterShard
}

func newQueueTel() queueTel {
	i := int(queueSeq.Add(1))
	return queueTel{
		published: telPublished.Shard(i),
		delivered: telDelivered.Shard(i),
		acked:     telAcked.Shard(i),
		requeued:  telRequeued.Shard(i),
	}
}

// Overflow policies (RabbitMQ classic-queue x-overflow argument). The paper
// sets "reject-publish" so producers can detect backpressure and republish.
const (
	OverflowDropHead      = "drop-head"
	OverflowRejectPublish = "reject-publish"
)

// ErrQueueFull is reported to publishers when a reject-publish queue is at
// capacity. With publisher confirms enabled this surfaces as a basic.nack.
var ErrQueueFull = errors.New("broker: queue full (reject-publish)")

// QueueLimits captures the classic-queue resource arguments.
type QueueLimits struct {
	// MaxLen bounds the number of ready messages; 0 means unlimited.
	MaxLen int
	// MaxBytes bounds the total ready-message payload bytes; 0 = unlimited.
	MaxBytes int64
	// Overflow is OverflowDropHead (default) or OverflowRejectPublish.
	Overflow string
}

// OffNone marks a queue entry with no segment-log offset (every entry of
// a non-durable queue). Replication hooks use it as the "no offset"
// sentinel: a publish that returns OffNone has nothing to mirror.
const OffNone = ^uint64(0)

// offNone is the package-internal spelling.
const offNone = OffNone

// consumer is a registered basic.consume subscription. Every delivery of
// a queue is in exactly one place: the queue's ready ring, a consumer's
// pending ring, or the outbound core of the channel that issued it. The
// pump moves ready entries into pending rings under q.mu; the owning
// connection's delivery loop (one per physical connection, not per
// consumer) takes them out with take, so one slow connection does not
// stall the queue's other consumers.
type consumer struct {
	tag    string
	noAck  bool
	replay bool // fed by a replayLoop from the segment log, not the pump
	q      *Queue
	closed chan struct{} // closed on removal: the replayLoop's stop channel
	room   chan struct{} // replay only: take signals freed ring room to the replayLoop

	// Guarded by q.mu.
	pending msgRing     // at most outboxCap deliveries, in delivery order
	credit  int         // deliveries still allowed before an ack; creditUnlimited when prefetch is 0
	ch      *srvChannel // the channel that delivers, once armed; nil in queue-level tests
	queued  bool        // on ch's connection's ready list, or being served from it
}

const creditUnlimited = int(^uint(0) >> 1) // max int

// outboxCap bounds a consumer's pending ring; with prefetch unlimited it is
// the flow control in lieu of credit.
const outboxCap = 64

// Queue is a classic queue: an in-memory FIFO of ready messages plus a set
// of consumers served round-robin subject to prefetch credit.
//
// The queue owns one reference to every ready message. Delivery transfers
// that reference to the channel layer (which releases it on ack/discard or
// requeues it, handing it back); drop-head eviction, purge, and queue
// deletion release it directly.
type Queue struct {
	Name       string
	Durable    bool
	Exclusive  bool
	AutoDelete bool
	Limits     QueueLimits

	// log, when non-nil, is the queue's durable segment log. It is
	// attached once at declare time, before the queue is published to,
	// and never changes — reads need no lock. Every published message is
	// appended before it is enqueued; every settled delivery (ack,
	// discard, noAck send, drop-head eviction, purge) commits its offset
	// with an ack record.
	log *seglog.Log

	mu        sync.Mutex
	ready     msgRing // chunked ring deque: O(1) push-front/push-back/pop
	bytes     int64
	consumers []*consumer
	rr        int
	deleted   bool

	// onDequeue, if set, is called with the payload size whenever ready
	// bytes shrink; used for broker-wide memory accounting.
	onBytes func(deltaBytes int64)

	// onCommit, if set, observes every durably committed settlement after
	// its ack record hits the segment log — the replication layer's settle
	// stream. Called outside q.mu with either a single offset (offs nil)
	// or a batch (off == OffNone). Attached once at declare time.
	onCommit func(off uint64, offs []uint64)

	stats QueueStats
	tel   queueTel
}

// QueueStats are cumulative counters exposed for tests and metrics.
type QueueStats struct {
	Published uint64
	Delivered uint64
	Acked     uint64
	Requeued  uint64
	Dropped   uint64
	Rejected  uint64
}

// NewQueue creates a queue.
func NewQueue(name string, limits QueueLimits) *Queue {
	if limits.Overflow == "" {
		limits.Overflow = OverflowDropHead
	}
	return &Queue{Name: name, Limits: limits, tel: newQueueTel()}
}

// Len reports the number of ready messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ready.len()
}

// ConsumerCount reports the number of active consumers.
func (q *Queue) ConsumerCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.consumers)
}

// Stats returns a copy of the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Publish routes one message into the queue, delivering immediately if a
// consumer has credit. It returns ErrQueueFull when the reject-publish
// overflow policy denies the message (the caller keeps its reference). On
// success the queue owns the reference the caller retained for it.
//
// Durable queues append to the segment log before enqueueing, outside
// q.mu — an fsync=always append must not stall delivery on other
// consumers. With publisher confirms the append (and its fsync) therefore
// completes before the confirm is sent: confirm implies durable.
func (q *Queue) Publish(m *Message) error {
	_, err := q.PublishOff(m)
	return err
}

// PublishOff is Publish exposing the entry's segment-log offset (OffNone
// on non-durable queues) — the replication layer's append feed: the
// returned offset is what the master ships to its mirrors so replicas
// reproduce the master's numbering.
func (q *Queue) PublishOff(m *Message) (uint64, error) {
	off := offNone
	if q.log != nil {
		var err error
		off, err = q.log.Append(m.Exchange, m.RoutingKey, &m.Props, m.Body)
		if err != nil {
			return offNone, fmt.Errorf("broker: durable append: %w", err)
		}
	}
	var evicted []uint64
	q.mu.Lock()
	if q.deleted {
		q.mu.Unlock()
		// The record hit the log after the queue died; retire it so a
		// later recovery does not resurrect a message nobody owns.
		q.Commit(off)
		return offNone, errors.New("broker: queue deleted")
	}
	if q.overLimitLocked(m) {
		if q.Limits.Overflow == OverflowRejectPublish {
			q.stats.Rejected++
			q.mu.Unlock()
			q.Commit(off)
			return offNone, ErrQueueFull
		}
		// drop-head: evict from the front until the new message fits.
		for q.overLimitLocked(m) && q.ready.len() > 0 {
			dropped := q.popLocked()
			q.stats.Dropped++
			if dropped.off != offNone {
				evicted = append(evicted, dropped.off)
			}
			dropped.msg.Release()
		}
	}
	q.pushLocked(m, off)
	q.stats.Published++
	q.tel.published.Inc()
	q.pumpLocked()
	q.mu.Unlock()
	if len(evicted) > 0 {
		q.CommitAll(evicted)
	}
	return off, nil
}

// Get synchronously pops one ready message (basic.get), transferring the
// queue's reference to the caller. ok is false when the queue is empty.
// off is the entry's segment-log offset (offNone on non-durable queues) —
// the caller settles it later via Commit. remaining is the ready count
// after the pop.
func (q *Queue) Get() (m *Message, off uint64, redelivered bool, remaining int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ready.len() == 0 {
		return nil, offNone, false, 0, false
	}
	it := q.popLocked()
	q.stats.Delivered++
	q.tel.delivered.Inc()
	return it.msg, it.off, it.redelivered, q.ready.len(), true
}

// Purge drops all ready messages, returning how many were removed. Purged
// entries of a durable queue are committed — a purge is a settlement, not
// a crash, so the messages must not replay.
func (q *Queue) Purge() int {
	var purged []uint64
	q.mu.Lock()
	n := q.ready.len()
	for q.ready.len() > 0 {
		it := q.popLocked()
		if it.off != offNone {
			purged = append(purged, it.off)
		}
		it.msg.Release()
	}
	q.mu.Unlock()
	if len(purged) > 0 {
		q.CommitAll(purged)
	}
	return n
}

// RequeueAll returns a batch of messages to the head of the queue in one
// lock acquisition, preserving their order (msgs[0] ends up at the head),
// handing the caller's references back to the queue (nack/reject requeue,
// channel close). offs carries the entries' segment-log offsets, parallel
// to msgs. Each entry is flagged redelivered and keeps its offset: a
// requeue is not a settlement, so nothing is committed. A requeue racing
// a queue delete releases the messages instead of parking them forever.
func (q *Queue) RequeueAll(msgs []*Message, offs []uint64) {
	if len(msgs) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.deleted {
		for _, m := range msgs {
			m.Release()
		}
		return
	}
	for i := len(msgs) - 1; i >= 0; i-- {
		q.requeueLocked(msgs[i], offs[i])
	}
	q.pumpLocked()
}

// requeueLocked inserts m at the head (caller holds q.mu).
func (q *Queue) requeueLocked(m *Message, off uint64) {
	q.ready.pushFront(qitem{msg: m, off: off, redelivered: true})
	q.addBytesLocked(m.size())
	q.stats.Requeued++
	q.tel.requeued.Inc()
	telDepthPeak.Record(int64(q.ready.len()))
}

// AddConsumer registers a consumer with the given prefetch limit (0 means
// unlimited) and returns it. The pump fills its pending ring at once; the
// channel layer arms it to have its connection's delivery loop take them.
func (q *Queue) AddConsumer(tag string, noAck bool, prefetch int) (*consumer, error) {
	credit := prefetch
	if credit <= 0 {
		credit = creditUnlimited
	}
	return q.addConsumer(&consumer{tag: tag, noAck: noAck, credit: credit})
}

// AddReplayConsumer registers a consumer fed from the queue's segment log
// starting at offset from, instead of from the ready ring: a cold consumer
// replaying history (pair with Options.RetainAll to guarantee offset 0 is
// still retained). Replay consumers are forcibly noAck — the log is the
// source of truth and replay must not commit anything — and after draining
// the retained history they follow the log tail live. Their deliveries
// reach the channel layer through the same pending ring.
func (q *Queue) AddReplayConsumer(tag string, from uint64) (*consumer, error) {
	if q.log == nil {
		return nil, fmt.Errorf("%w: queue %q is not durable, cannot replay", ErrPreconditionFailed, q.Name)
	}
	c, err := q.addConsumer(&consumer{tag: tag, noAck: true, replay: true, credit: creditUnlimited, room: make(chan struct{}, 1)})
	if err == nil {
		go q.replayLoop(c, from)
	}
	return c, err
}

// addConsumer registers c, unless the queue is deleted, then pumps (which
// passes over a replay consumer). The ring gets its chunk here, at
// subscribe time: a consumer's first delivery allocates nothing.
func (q *Queue) addConsumer(c *consumer) (*consumer, error) {
	c.closed, c.q = make(chan struct{}), q
	c.pending.reserve()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.deleted {
		return nil, errors.New("broker: queue deleted")
	}
	q.consumers = append(q.consumers, c)
	q.pumpLocked()
	return c, nil
}

// replayLoop feeds one replay consumer from the segment log. Each record
// is re-materialized as a fresh pooled message (the log owns no
// references), so replay rides the same zero-copy delivery path as live
// traffic. A full ring stalls only this consumer's replay: the loop waits
// for take to signal room.
func (q *Queue) replayLoop(c *consumer, from uint64) {
	r := q.log.NewReader(from)
	defer r.Close()
	var lag int64
	defer func() { telReplayLag.Add(-lag) }()
	for {
		rec, err := r.Next(c.closed)
		if err != nil {
			return
		}
		if l := int64(q.log.NextOffset()-rec.Offset) - 1; l >= 0 {
			telReplayLag.Add(l - lag)
			lag = l
		}
		m := NewMessage(rec.Exchange, rec.Key, rec.Props, len(rec.Body))
		m.AppendBody(rec.Body)
		telReplayed.Inc()
		for !q.offerReplay(c, qitem{msg: m, off: rec.Offset}) {
			select {
			case <-c.room:
			case <-c.closed:
				m.Release()
				return
			}
		}
	}
}

// offerReplay puts a replay record on c's ring if it has room, and reports
// whether it did. A removed consumer takes nothing: the record is
// released, and the replayLoop sees c.closed next.
func (q *Queue) offerReplay(c *consumer, it qitem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case <-c.closed:
		it.msg.Release()
		return true
	default:
	}
	if c.pending.len() >= outboxCap {
		return false
	}
	q.offerLocked(c, it)
	return true
}

// RemoveConsumer cancels a consumer. Its pending deliveries go back to the
// head of the queue, in order and flagged redelivered, ahead of the ready
// tail; a replay consumer's are log re-reads and are released instead.
func (q *Queue) RemoveConsumer(c *consumer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.consumers, c)
	if i < 0 {
		return // removed before, or the queue was deleted
	}
	q.consumers = slices.Delete(q.consumers, i, i+1)
	close(c.closed)
	if q.rr >= len(q.consumers) {
		q.rr = 0
	}
	var back [outboxCap]qitem
	n := 0
	for ; c.pending.len() > 0; n++ {
		back[n] = c.pending.popFront()
	}
	for i := n - 1; i >= 0; i-- {
		if c.replay {
			back[i].msg.Release()
		} else {
			q.requeueLocked(back[i].msg, back[i].off)
		}
	}
	q.pumpLocked()
}

// arm hands c to ch's connection's delivery loop: from now on c is queued
// there whenever its ring holds deliveries. The channel layer arms a
// consumer after writing its consume-ok.
func (q *Queue) arm(c *consumer, ch *srvChannel) {
	q.mu.Lock()
	defer q.mu.Unlock()
	c.ch = ch
	q.wakeLocked(c)
}

// take pops up to len(buf) of c's pending deliveries into buf, in order,
// and returns how many; it stops after the one that brings their bodies
// to maxDeliveryBytes. In the same lock hold it refills the rings the pop
// made room in, then unqueues c, or queues it again on its delivery loop
// if deliveries are left.
func (q *Queue) take(c *consumer, buf []qitem) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for bytes := 0; n < len(buf) && c.pending.len() > 0 && bytes < maxDeliveryBytes; n++ {
		buf[n] = c.pending.popFront()
		bytes += len(buf[n].msg.Body)
	}
	if c.replay && n > 0 {
		select {
		case c.room <- struct{}{}:
		default:
		}
	}
	q.pumpLocked()
	c.queued = false
	q.wakeLocked(c)
	return n
}

// AckN acknowledges n deliveries for consumer c, restoring n prefetch slots
// and re-pumping in a single lock acquisition (multiple-ack batching).
func (q *Queue) AckN(c *consumer, n int) {
	if n <= 0 || c.replay {
		// Replay deliveries come from the log, not the ready ring: they
		// hold no credit and must not inflate the queue's ack counters.
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if c.credit != creditUnlimited {
		c.credit += n
	}
	q.stats.Acked += uint64(n)
	q.tel.acked.Add(int64(n))
	q.pumpLocked()
}

// Commit durably retires one settled delivery (ack, discard, noAck send)
// by appending an ack record to the segment log. No-op on non-durable
// queues and offNone entries. Failures are swallowed: the log refusing an
// ack (it crashed or closed underneath us) at worst means the message
// replays after restart, which at-least-once delivery permits.
func (q *Queue) Commit(off uint64) {
	if q.log == nil || off == offNone {
		return
	}
	_ = q.log.Ack(off)
	if q.onCommit != nil {
		q.onCommit(off, nil)
	}
}

// CommitAll retires a batch of settled deliveries in one log-lock
// acquisition (the batched-ack path). No-op on non-durable queues.
func (q *Queue) CommitAll(offs []uint64) {
	if q.log == nil || len(offs) == 0 {
		return
	}
	_ = q.log.AckAll(offs)
	if q.onCommit != nil {
		q.onCommit(OffNone, offs)
	}
}

// Log exposes the queue's durable segment log (nil on transient queues).
// The replication layer uses it to snapshot offsets and drive mirror
// catch-up scans; it never mutates the log directly.
func (q *Queue) Log() *seglog.Log { return q.log }

// ReleaseN returns n prefetch slots without counting acknowledgements, in a
// single lock acquisition (nack/reject paths and channel teardown).
func (q *Queue) ReleaseN(c *consumer, n int) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if c.credit != creditUnlimited {
		c.credit += n
	}
	q.pumpLocked()
}

// markDeleted flags the queue as gone, cancels all consumers, and
// releases every pending and ready message.
func (q *Queue) markDeleted() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.deleted = true
	for _, c := range q.consumers {
		close(c.closed)
		for c.pending.len() > 0 {
			c.pending.popFront().msg.Release()
		}
	}
	q.consumers = nil
	for q.ready.len() > 0 {
		q.popLocked().msg.Release()
	}
}

// restore re-enqueues the unacked records a segment-log recovery handed
// back, before the queue is visible to any publisher or consumer (no lock,
// no pump). Each record keeps its original offset and is flagged
// redelivered — it was published before the crash.
func (q *Queue) restore(recs []*seglog.Record) {
	for _, r := range recs {
		m := NewMessage(r.Exchange, r.Key, r.Props, len(r.Body))
		m.AppendBody(r.Body)
		q.ready.pushBack(qitem{msg: m, off: r.Offset, redelivered: true})
		q.addBytesLocked(m.size())
	}
	telDepthPeak.Record(int64(q.ready.len()))
}

// close stops the queue for a graceful server shutdown: the segment log is
// flushed, synced and closed first — recovery finds a clean tail with
// every unsettled record still in it — and only then are the ready bodies
// (connection teardown has requeued the unacked ones by now) released
// back to the pool. Nothing is settled: no record is written for them.
func (q *Queue) close() {
	if q.log != nil {
		q.log.Close()
	}
	q.markDeleted()
}

// crash hard-stops the queue for fault injection: the segment log is
// crashed first (its unflushed buffer dies, exactly as under SIGKILL), and
// only then is in-memory state torn down — releasing ready bodies back to
// the pool so the host process's loan accounting stays balanced. The disk
// is left with whatever a real kill would have left.
func (q *Queue) crash() {
	if q.log != nil {
		q.log.Crash()
	}
	q.markDeleted()
}

// --- internal (callers hold q.mu) ---

func (q *Queue) overLimitLocked(m *Message) bool {
	if q.Limits.MaxLen > 0 && q.ready.len()+1 > q.Limits.MaxLen {
		return true
	}
	if q.Limits.MaxBytes > 0 && q.bytes+m.size() > q.Limits.MaxBytes {
		return true
	}
	return false
}

func (q *Queue) pushLocked(m *Message, off uint64) {
	q.ready.pushBack(qitem{msg: m, off: off})
	q.addBytesLocked(m.size())
	telDepthPeak.Record(int64(q.ready.len()))
}

func (q *Queue) popLocked() qitem {
	it := q.ready.popFront()
	q.addBytesLocked(-it.msg.size())
	return it
}

// addBytesLocked accounts d ready payload bytes to the queue and, through
// onBytes, to its vhost.
func (q *Queue) addBytesLocked(d int64) {
	q.bytes += d
	if q.onBytes != nil {
		q.onBytes(d)
	}
}

// pumpLocked moves ready messages round-robin onto the rings of consumers
// that have both prefetch credit and ring room.
func (q *Queue) pumpLocked() {
	for q.ready.len() > 0 && len(q.consumers) > 0 {
		c := q.nextConsumerLocked()
		if c == nil {
			return
		}
		it := q.popLocked()
		if c.credit != creditUnlimited {
			c.credit--
		}
		q.stats.Delivered++
		q.tel.delivered.Inc()
		q.offerLocked(c, it)
	}
}

// offerLocked appends it to c's ring and wakes c.
func (q *Queue) offerLocked(c *consumer, it qitem) {
	c.pending.pushBack(it)
	q.wakeLocked(c)
}

// wakeLocked queues an armed consumer that holds deliveries on its
// connection's delivery loop, unless it is queued already: c is on the
// loop's ready list at most once, so one server takes its deliveries at a
// time, in order.
func (q *Queue) wakeLocked(c *consumer) {
	if c.ch != nil && !c.queued && c.pending.len() > 0 {
		c.queued = true
		c.ch.conn.schedule(c)
	}
}

// nextConsumerLocked picks the next round-robin consumer that can accept a
// delivery, or nil if none can.
func (q *Queue) nextConsumerLocked() *consumer {
	n := len(q.consumers)
	for i := 0; i < n; i++ {
		c := q.consumers[(q.rr+i)%n]
		if c.replay {
			// Replay consumers are fed by their replayLoop, never the pump.
			continue
		}
		if (c.credit == creditUnlimited || c.credit > 0) && c.pending.len() < outboxCap {
			q.rr = (q.rr + i + 1) % n
			return c
		}
	}
	return nil
}
