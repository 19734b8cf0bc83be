package broker

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ds2hpc/internal/metrics"
	"ds2hpc/internal/wire"
)

// srvChannel is the server-side state of one client channel: consumers,
// unacknowledged deliveries, confirm mode, and in-flight publish assembly.
type srvChannel struct {
	id   uint16
	conn *srvConn

	mu          sync.Mutex
	prefetch    int
	confirm     bool
	publishSeq  uint64
	deliveryTag uint64
	consumers   map[string]*consumerEntry
	unacked     map[uint64]*unackedEntry
	pending     *pendingPublish
	closed      bool

	// ackPending holds the confirm tags of completed publishes until the
	// connection's next flushConfirms (serve-goroutine state, no lock).
	// bridged counts publishes handed to the cluster hook whose verdict
	// ClusterConfirm has not yet put on the wire.
	ackPending []uint64
	bridged    atomic.Int64

	// Serve-goroutine state, no lock: the decode targets of this
	// channel's hot frames, and the scratch a multiple-ack resolves its
	// deliveries in (basicAck).
	slots       wire.Slots
	ackResolved []taggedEntry
	ackGroups   []ackGroup
}

// consumerEntry pairs a queue consumer with the channel that owns it.
// scheduled is the dispatch flag of the connection's delivery loop: set
// when the entry sits in (or is being served from) the loop's ready list,
// which guarantees one server per consumer at a time and hence
// per-consumer delivery order.
type consumerEntry struct {
	tag       string
	queue     *Queue
	cons      *consumer
	noAck     bool
	ch        *srvChannel
	scheduled atomic.Bool
}

// unackedEntry tracks one outstanding delivery awaiting acknowledgement.
// off is the entry's segment-log offset (offNone on non-durable queues),
// committed when the delivery settles as acked or discarded.
type unackedEntry struct {
	queue *Queue
	cons  *consumer // nil for basic.get deliveries
	msg   *Message
	off   uint64
}

// unackedPool recycles unacked-delivery entries; an entry is owned by
// exactly one map slot, so whoever deletes it (ack/nack/teardown) releases
// it once resolved.
var unackedPool = sync.Pool{New: func() any { return new(unackedEntry) }}

func newUnacked(q *Queue, c *consumer, m *Message, off uint64) *unackedEntry {
	ua := unackedPool.Get().(*unackedEntry)
	ua.queue, ua.cons, ua.msg, ua.off = q, c, m, off
	return ua
}

func releaseUnacked(ua *unackedEntry) {
	*ua = unackedEntry{}
	unackedPool.Put(ua)
}

// pendingPublish accumulates a basic.publish across method/header/body.
// The message is created when the content header arrives — its pooled
// body buffer is presized from the header's BodySize, so multi-frame
// bodies assemble into one loan with zero reallocation. The method is a
// copy: the decoded one lives in the channel's slots.
type pendingPublish struct {
	method   wire.BasicPublish
	msg      *Message // nil until the content header
	bodySize uint64
	seq      uint64
}

// pendingPool recycles publish-assembly state across messages.
var pendingPool = sync.Pool{New: func() any { return new(pendingPublish) }}

func recyclePending(p *pendingPublish) {
	*p = pendingPublish{}
	pendingPool.Put(p)
}

func newSrvChannel(sc *srvConn, id uint16) *srvChannel {
	return &srvChannel{
		id:        id,
		conn:      sc,
		consumers: map[string]*consumerEntry{},
		unacked:   map[uint64]*unackedEntry{},
	}
}

// teardown cancels consumers and requeues unacked messages (connection or
// channel close).
func (ch *srvChannel) teardown() {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.closed = true
	consumers := ch.consumers
	unacked := ch.unacked
	pending := ch.pending
	ch.consumers = map[string]*consumerEntry{}
	ch.unacked = map[uint64]*unackedEntry{}
	ch.pending = nil
	ch.mu.Unlock()

	if pending != nil && pending.msg != nil {
		// A publish cut off mid-assembly: drop the half-built body.
		pending.msg.Release()
	}
	for _, ce := range consumers {
		ce.queue.RemoveConsumer(ce.cons)
		// Drain inline as well: on connection death the delivery loop may
		// already have exited, leaving outbox messages no one else would
		// return to the queue. (Racing the loop's own closed-drain is
		// safe — each delivery is received exactly once.)
		drainOutbox(ce)
	}
	for _, ua := range unacked {
		if ua.cons != nil {
			ua.queue.Release(ua.cons)
		}
		ua.queue.Requeue(ua.msg, ua.off)
		releaseUnacked(ua)
	}
}

// exception sends a channel.close to the client — after the confirms of the
// publishes that preceded the failure — and tears the channel down. Serve
// goroutine only.
func (ch *srvChannel) exception(code uint16, text string, m wire.Method) error {
	// A node going down says nothing more. Crash tears its queues down
	// before it drops their connections, and a channel exception for a
	// queue the crash removed would tell a reconnecting client that its
	// channel, not its transport, failed: the client would drop the
	// channel instead of resuming it on a survivor.
	srv := ch.conn.srv
	srv.mu.Lock()
	down := srv.closed
	srv.mu.Unlock()
	if down {
		return errConnClosed
	}
	classID, methodID := uint16(0), uint16(0)
	if m != nil {
		classID, methodID = m.ID()
	}
	ch.conn.flushConfirms()
	ch.teardown()
	ch.conn.removeChannel(ch.id)
	return ch.conn.writeMethod(ch.id, &wire.ChannelClose{
		ReplyCode: code, ReplyText: text, ClassID: classID, MethodID: methodID,
	})
}

func errorCode(err error) uint16 {
	switch {
	case errors.Is(err, ErrNotFound):
		return wire.ReplyNotFound
	case errors.Is(err, ErrPreconditionFailed):
		return wire.ReplyPreconditionFailed
	case errors.Is(err, ErrMemoryAlarm), errors.Is(err, ErrQueueFull):
		return wire.ReplyResourceError
	default:
		return wire.ReplyInternalError
	}
}

func (ch *srvChannel) onMethod(m wire.Method) error {
	vh := ch.conn.vh
	switch x := m.(type) {
	case *wire.ChannelClose:
		ch.teardown()
		ch.conn.removeChannel(ch.id)
		return ch.conn.writeMethod(ch.id, &wire.ChannelCloseOk{})
	case *wire.ChannelCloseOk:
		return nil
	case *wire.ChannelFlow:
		return ch.conn.writeMethod(ch.id, &wire.ChannelFlowOk{Active: x.Active})

	case *wire.ExchangeDeclare:
		if _, err := vh.DeclareExchange(x.Exchange, x.Type, x.Passive); err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.ExchangeDeclareOk{})
	case *wire.ExchangeDelete:
		if err := vh.DeleteExchange(x.Exchange, x.IfUnused); err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.ExchangeDeleteOk{})

	case *wire.QueueDeclare:
		if hook := ch.conn.srv.cfg.Cluster; hook != nil && x.Queue != "" {
			if _, local := hook.Lookup(vh.Name, x.Queue); !local {
				// Location-transparent declare: ensure the queue exists on
				// its master over the federation link and answer here, so
				// a client never needs to know placement to declare.
				if err := hook.EnsureRemoteQueue(vh.Name, x.Queue, x.Durable); err != nil {
					return ch.exception(wire.ReplyResourceError, err.Error(), m)
				}
				if x.NoWait {
					return nil
				}
				return ch.conn.writeMethod(ch.id, &wire.QueueDeclareOk{Queue: x.Queue})
			}
		}
		q, err := vh.DeclareQueue(x.Queue, x.Durable, x.Exclusive, x.AutoDelete, x.Passive, x.Arguments)
		if err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		if hook := ch.conn.srv.cfg.Cluster; hook != nil {
			hook.RegisterQueue(vh.Name, q.Name, x.Durable)
		}
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.QueueDeclareOk{
			Queue:         q.Name,
			MessageCount:  uint32(q.Len()),
			ConsumerCount: uint32(q.ConsumerCount()),
		})
	case *wire.QueueBind:
		q, ok := vh.Queue(x.Queue)
		if !ok {
			return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), m)
		}
		e, ok := vh.Exchange(x.Exchange)
		if !ok {
			return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no exchange %q", x.Exchange), m)
		}
		e.Bind(q, x.RoutingKey)
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.QueueBindOk{})
	case *wire.QueueUnbind:
		q, ok := vh.Queue(x.Queue)
		if !ok {
			return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), m)
		}
		if e, ok := vh.Exchange(x.Exchange); ok {
			e.Unbind(q, x.RoutingKey)
		}
		return ch.conn.writeMethod(ch.id, &wire.QueueUnbindOk{})
	case *wire.QueuePurge:
		q, ok := vh.Queue(x.Queue)
		if !ok {
			return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), m)
		}
		n := q.Purge()
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.QueuePurgeOk{MessageCount: uint32(n)})
	case *wire.QueueDelete:
		n, err := vh.DeleteQueue(x.Queue, x.IfUnused, x.IfEmpty)
		if err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		// Drop consumer entries that pointed at the deleted queue.
		ch.mu.Lock()
		for tag, ce := range ch.consumers {
			if ce.queue.Name == x.Queue {
				delete(ch.consumers, tag)
			}
		}
		ch.mu.Unlock()
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.QueueDeleteOk{MessageCount: uint32(n)})

	case *wire.BasicQos:
		ch.mu.Lock()
		ch.prefetch = int(x.PrefetchCount)
		ch.mu.Unlock()
		return ch.conn.writeMethod(ch.id, &wire.BasicQosOk{})
	case *wire.BasicConsume:
		return ch.basicConsume(x)
	case *wire.BasicCancel:
		ch.mu.Lock()
		ce, ok := ch.consumers[x.ConsumerTag]
		delete(ch.consumers, x.ConsumerTag)
		ch.mu.Unlock()
		if ok {
			ce.queue.RemoveConsumer(ce.cons)
		}
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.BasicCancelOk{ConsumerTag: x.ConsumerTag})
	case *wire.BasicPublish:
		p := pendingPool.Get().(*pendingPublish)
		p.method = *x
		ch.mu.Lock()
		if ch.confirm {
			ch.publishSeq++
			p.seq = ch.publishSeq
		}
		prev := ch.pending
		ch.pending = p
		ch.mu.Unlock()
		if prev != nil && prev.msg != nil {
			// Protocol misuse: a new publish started before the previous
			// one's body completed. Drop the half-assembled message.
			prev.msg.Release()
		}
		return nil
	case *wire.BasicGet:
		return ch.basicGet(x)
	case *wire.BasicAck:
		return ch.basicAck(x.DeliveryTag, x.Multiple, true, false)
	case *wire.BasicNack:
		return ch.basicAck(x.DeliveryTag, x.Multiple, false, x.Requeue)
	case *wire.BasicReject:
		return ch.basicAck(x.DeliveryTag, false, false, x.Requeue)

	case *wire.ConfirmSelect:
		ch.mu.Lock()
		ch.confirm = true
		ch.mu.Unlock()
		if x.NoWait {
			return nil
		}
		return ch.conn.writeMethod(ch.id, &wire.ConfirmSelectOk{})
	default:
		return ch.exception(wire.ReplyNotImplemented, fmt.Sprintf("method %T", m), m)
	}
}

func (ch *srvChannel) basicConsume(x *wire.BasicConsume) error {
	vh := ch.conn.vh
	if err := ch.redirectIfRemote(vh.Name, x.Queue, x); err != nil {
		return err
	}
	q, ok := vh.Queue(x.Queue)
	if !ok {
		return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), x)
	}
	tag := x.ConsumerTag
	ch.mu.Lock()
	if tag == "" {
		tag = fmt.Sprintf("ctag-%d-%d", ch.id, len(ch.consumers)+1)
	}
	if _, dup := ch.consumers[tag]; dup {
		ch.mu.Unlock()
		return ch.exception(wire.ReplyNotAllowed, fmt.Sprintf("duplicate consumer tag %q", tag), x)
	}
	prefetch := ch.prefetch
	ch.mu.Unlock()

	var cons *consumer
	var err error
	noAck := x.NoAck
	if _, replay := x.Arguments["x-stream-offset"]; replay {
		// Replay consume: attach to the queue's segment log at the given
		// offset instead of the live ready ring. Replay deliveries are
		// forcibly noAck — the log already settled or will settle these
		// records through their live deliveries.
		from := x.Arguments.Int("x-stream-offset", 0)
		if from < 0 {
			from = 0
		}
		cons, err = q.AddReplayConsumer(tag, uint64(from))
		noAck = true
	} else {
		cons, err = q.AddConsumer(tag, x.NoAck, prefetch)
	}
	if err != nil {
		return ch.exception(errorCode(err), err.Error(), x)
	}
	ce := &consumerEntry{tag: tag, queue: q, cons: cons, noAck: noAck, ch: ch}
	ch.mu.Lock()
	ch.consumers[tag] = ce
	ch.mu.Unlock()

	// consume-ok goes out before the consumer is armed: once armed, the
	// delivery loop may write deliveries at once, and a client that reads
	// them before the -ok can have its consumer's buffer filled while
	// Consume still waits for the reply.
	if !x.NoWait {
		err = ch.conn.writeMethod(ch.id, &wire.BasicConsumeOk{ConsumerTag: tag})
	}
	// Hand delivery writing to the connection's event-driven loop: the
	// wake hook schedules this consumer whenever its outbox has work, so
	// an idle consumer costs a map entry, not a parked goroutine.
	cons.SetWake(func() { ch.conn.wakeConsumer(ce) })
	return err
}

// maxDeliveryBatch caps how many queued deliveries one writer drains into a
// single coalesced write (and one queue-lock round-trip of completions).
const maxDeliveryBatch = 16

// serveConsumer drains one bounded batch from a consumer's outbox onto
// the wire and emits it with one flush, instead of one write — and one
// queue-lock acquisition — per message. It runs on the connection's
// delivery loop; the entry's scheduled flag guarantees a single server
// per consumer at a time, preserving per-consumer delivery order. A
// closed consumer drains back to its queue and stays scheduled forever,
// so later wakes cannot resurrect it.
func (ch *srvChannel) serveConsumer(ce *consumerEntry) {
	select {
	case <-ce.cons.closed:
		drainOutbox(ce)
		return
	default:
	}
	var batch [maxDeliveryBatch]delivery
	n := 0
fill:
	for n < maxDeliveryBatch {
		select {
		case d := <-ce.cons.outbox:
			batch[n] = d
			n++
		default:
			break fill
		}
	}
	if n > 0 {
		ch.sendDeliverBatch(ce, batch[:n])
		ce.queue.DeliveryDoneN(ce.cons, n)
	}
	// Unschedule, then re-check: a delivery (or close) that raced the
	// drain above re-schedules the entry instead of being stranded.
	ce.scheduled.Store(false)
	resched := len(ce.cons.outbox) > 0
	if !resched {
		select {
		case <-ce.cons.closed:
			resched = true
		default:
		}
	}
	if resched {
		ch.conn.wakeConsumer(ce)
	}
}

// drainOutbox returns a closed consumer's undelivered outbox to its queue
// (a requeue racing a queue delete releases the message instead). Replay
// deliveries never re-enter the ring — their messages are log re-reads,
// not queue-owned references.
func drainOutbox(ce *consumerEntry) {
	for {
		select {
		case d := <-ce.cons.outbox:
			if ce.cons.replay {
				d.msg.Release()
			} else {
				ce.queue.Requeue(d.msg, d.off)
			}
		default:
			return
		}
	}
}

var (
	deliveryBatches   = metrics.Default.Counter("broker.delivery_batches")
	deliveriesBatched = metrics.Default.Counter("broker.deliveries_batched")
)

// sendDeliverBatch assigns delivery tags to a batch of deliveries under
// one channel-lock hold and writes all their frames as one coalesced
// batch. The redelivered flag travels with the delivery (per-queue
// state), so a concurrent requeue of the shared message cannot flip it
// mid-serialization. The batch's message references are either parked in
// the unacked map, requeued, or released — never dropped.
func (ch *srvChannel) sendDeliverBatch(ce *consumerEntry, batch []delivery) {
	var msgs [maxDeliveryBatch]*Message
	var tags [maxDeliveryBatch]uint64
	var redeliv [maxDeliveryBatch]bool
	offs := &ch.conn.dispOffs
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		// Hand the references back to the queue, preserving order (replay
		// re-reads are simply dropped — the log still has them).
		for i := len(batch) - 1; i >= 0; i-- {
			if ce.cons.replay {
				batch[i].msg.Release()
			} else {
				ce.queue.Requeue(batch[i].msg, batch[i].off)
			}
		}
		return
	}
	for i, d := range batch {
		ch.deliveryTag++
		msgs[i] = d.msg
		tags[i] = ch.deliveryTag
		offs[i] = d.off
		redeliv[i] = d.redelivered
		if !ce.noAck {
			// The unacked entry takes over the queue's reference; the
			// write below needs its own — the moment the entry exists, a
			// concurrent teardown may requeue the message, and another
			// consumer could resolve it while these frames are still
			// being serialized.
			d.msg.Retain()
			ch.unacked[tags[i]] = newUnacked(ce.queue, ce.cons, d.msg, d.off)
		}
	}
	ch.mu.Unlock()

	deliveryBatches.Inc()
	deliveriesBatched.Add(uint64(len(batch)))
	err := ch.conn.writeDeliveries(ch.id, ce.tag, msgs[:len(batch)], tags[:len(batch)], redeliv[:len(batch)])
	if ce.noAck {
		// noAck deliveries resolve immediately: restore credit (even on a
		// dying connection the pop already happened) and drop the queue's
		// reference — the bytes are on the wire or lost, at-most-once.
		// On a durable queue that settlement is committed to the log;
		// replay deliveries commit nothing (the log is their source).
		ce.queue.AckN(ce.cons, len(batch))
		if !ce.cons.replay {
			ce.queue.CommitAll(offs[:len(batch)])
		}
	}
	// Drop the write's (noAck: the queue's) reference per message.
	for _, d := range batch {
		d.msg.Release()
	}
	_ = err // on error the connection is going away; teardown requeues unacked
}

func (ch *srvChannel) basicGet(x *wire.BasicGet) error {
	vh := ch.conn.vh
	if err := ch.redirectIfRemote(vh.Name, x.Queue, x); err != nil {
		return err
	}
	q, ok := vh.Queue(x.Queue)
	if !ok {
		return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), x)
	}
	msg, off, redelivered, remaining, ok := q.Get()
	if !ok {
		return ch.conn.writeMethod(ch.id, &wire.BasicGetEmpty{})
	}
	ch.mu.Lock()
	ch.deliveryTag++
	tag := ch.deliveryTag
	if !x.NoAck {
		// As in sendDeliverBatch: the unacked entry takes the queue's
		// reference, the write holds its own.
		msg.Retain()
		ch.unacked[tag] = newUnacked(q, nil, msg, off)
	}
	ch.mu.Unlock()
	err := ch.conn.writeContent(ch.id, &wire.BasicGetOk{
		DeliveryTag:  tag,
		Redelivered:  redelivered,
		Exchange:     msg.Exchange,
		RoutingKey:   msg.RoutingKey,
		MessageCount: uint32(remaining),
	}, &msg.Props, msg.Body)
	// Drop the write's (NoAck: the queue's) reference; a NoAck get is a
	// settlement, so the durable offset commits.
	msg.Release()
	if x.NoAck {
		q.Commit(off)
	}
	return err
}

var (
	ackBatches  = metrics.Default.Counter("broker.ack_batches")
	acksBatched = metrics.Default.Counter("broker.acks_batched")
)

// ackGroup accumulates the resolutions of a multiple-ack that target the
// same queue and consumer, so credit is restored (and the queue re-pumped)
// in one lock acquisition per group instead of one per message.
type ackGroup struct {
	queue *Queue
	cons  *consumer
	n     int        // deliveries resolved for cons
	msgs  []*Message // messages to requeue, in delivery-tag order
	offs  []uint64   // durable offsets: commit targets (ack/discard) or requeue offsets, parallel to msgs
}

// taggedEntry is an unacked delivery taken out of the map with its tag.
type taggedEntry struct {
	tag uint64
	ua  *unackedEntry
}

// basicAck resolves unacked deliveries. ack=true acknowledges; ack=false
// with requeue returns messages to their queues; ack=false without requeue
// discards them (dead-lettering is out of scope). Multiple-ack paths batch
// per-queue work: one credit restore and one pump per (queue, consumer),
// in the channel's reused scratch (serve goroutine only).
func (ch *srvChannel) basicAck(tag uint64, multiple, ack, requeue bool) error {
	if !multiple {
		// Fast path: a single-tag resolution needs no batching machinery.
		ch.mu.Lock()
		ua, ok := ch.unacked[tag]
		delete(ch.unacked, tag)
		ch.mu.Unlock()
		if !ok {
			return nil
		}
		ch.resolveEntry(ua, ack, requeue)
		releaseUnacked(ua)
		return nil
	}
	ch.mu.Lock()
	entries := ch.ackResolved[:0]
	for t, ua := range ch.unacked {
		if t <= tag || tag == 0 {
			entries = append(entries, taggedEntry{t, ua})
			delete(ch.unacked, t)
		}
	}
	ch.mu.Unlock()
	defer func() {
		clear(entries) // the entries recycle below; keep no pointers to them
		ch.ackResolved = entries[:0]
	}()
	if len(entries) == 0 {
		return nil
	}
	if len(entries) == 1 {
		ch.resolveEntry(entries[0].ua, ack, requeue)
		releaseUnacked(entries[0].ua)
		return nil
	}
	// Resolve in delivery-tag order so batch requeues restore queue order.
	slices.SortFunc(entries, func(a, b taggedEntry) int { return cmp.Compare(a.tag, b.tag) })
	ackBatches.Inc()
	acksBatched.Add(uint64(len(entries)))

	groups := ch.ackGroups[:0]
	for _, e := range entries {
		ua := e.ua
		var g *ackGroup
		for i := range groups {
			if groups[i].queue == ua.queue && groups[i].cons == ua.cons {
				g = &groups[i]
				break
			}
		}
		if g == nil {
			// Reuse the slot's slices from earlier batches.
			groups = slices.Grow(groups, 1)[:len(groups)+1]
			g = &groups[len(groups)-1]
			*g = ackGroup{queue: ua.queue, cons: ua.cons, msgs: g.msgs[:0], offs: g.offs[:0]}
		}
		if ua.cons != nil {
			g.n++
		}
		// Durable queues track offsets per entry: as requeue offsets
		// (parallel to msgs) or commit targets (ack/discard). Non-durable
		// groups leave the slice empty, which RequeueAll and CommitAll read
		// as "no offsets".
		if ua.queue.log != nil {
			g.offs = append(g.offs, ua.off)
		}
		if !ack && requeue {
			g.msgs = append(g.msgs, ua.msg)
		} else {
			// Acked or discarded: the unacked entry's reference resolves
			// here; the last owner returns the body to the pool.
			ua.msg.Release()
		}
	}
	for i := range groups {
		g := &groups[i]
		switch {
		case ack:
			if g.cons != nil {
				g.queue.AckN(g.cons, g.n)
			}
			g.queue.CommitAll(g.offs)
		case requeue:
			if g.cons != nil {
				g.queue.ReleaseN(g.cons, g.n)
			}
			g.queue.RequeueAll(g.msgs, g.offs)
		default:
			if g.cons != nil {
				g.queue.ReleaseN(g.cons, g.n)
			}
			g.queue.CommitAll(g.offs)
		}
	}
	// The groups hold their own message-pointer copies; the resolved
	// entries can recycle now.
	for _, e := range entries {
		releaseUnacked(e.ua)
	}
	for i := range groups {
		g := &groups[i]
		clear(g.msgs)
		g.queue, g.cons = nil, nil
	}
	ch.ackGroups = groups[:0]
	return nil
}

// resolveEntry applies a single delivery resolution (the non-batched
// path). Requeue hands the entry's message reference back to the queue;
// ack and discard release it and commit the durable offset — both settle
// the message for good, so neither may replay after a restart.
func (ch *srvChannel) resolveEntry(ua *unackedEntry, ack, requeue bool) {
	switch {
	case ack:
		if ua.cons != nil {
			ua.queue.Ack(ua.cons)
		}
		ua.msg.Release()
		ua.queue.Commit(ua.off)
	case requeue:
		if ua.cons != nil {
			ua.queue.Release(ua.cons)
		}
		ua.queue.Requeue(ua.msg, ua.off)
	default:
		if ua.cons != nil {
			ua.queue.Release(ua.cons)
		}
		ua.msg.Release()
		ua.queue.Commit(ua.off)
	}
}

// onHeader receives the content header of an in-flight publish and
// creates the pooled message, presizing its body buffer from the
// header's BodySize so every body frame appends without reallocating.
func (ch *srvChannel) onHeader(h *wire.ContentHeader) error {
	ch.mu.Lock()
	p := ch.pending
	if p != nil {
		if h.BodySize > wire.MaxBodyBytes {
			ch.pending = nil
			ch.mu.Unlock()
			return ch.exception(wire.ReplyPreconditionFailed,
				fmt.Sprintf("declared body size %d exceeds limit", h.BodySize), &p.method)
		}
		p.bodySize = h.BodySize
		p.msg = NewMessage(p.method.Exchange, p.method.RoutingKey, h.Properties, int(h.BodySize))
		if h.BodySize == 0 {
			ch.pending = nil
		}
	}
	ch.mu.Unlock()
	if p == nil {
		return fmt.Errorf("broker: header frame without publish on channel %d", ch.id)
	}
	if h.BodySize == 0 {
		return ch.completePublish(p)
	}
	return nil
}

// onBody receives a body frame of an in-flight publish, copying it into
// the presized pooled body (the frame payload itself is a reader loan
// recycled on the next read). A frame that would carry the body past the
// size its header declared is a framing error and ends the connection
// (teardown releases the half-built message): appending it would grow the
// body off its loan and deliver more bytes than the header says.
func (ch *srvChannel) onBody(b []byte) error {
	ch.mu.Lock()
	p := ch.pending
	if p == nil || p.msg == nil {
		ch.mu.Unlock()
		return fmt.Errorf("broker: body frame without header on channel %d", ch.id)
	}
	if left := p.bodySize - uint64(len(p.msg.Body)); uint64(len(b)) > left {
		ch.mu.Unlock()
		return fmt.Errorf("broker: body frame of %d bytes overruns declared body size %d (%d left) on channel %d",
			len(b), p.bodySize, left, ch.id)
	}
	p.msg.AppendBody(b)
	complete := uint64(len(p.msg.Body)) >= p.bodySize
	if complete {
		ch.pending = nil
	}
	ch.mu.Unlock()
	if complete {
		return ch.completePublish(p)
	}
	return nil
}

// completePublish routes one fully assembled publish. A positive confirm
// is not written here: confirmPublish records it once the message is
// enqueued (and appended, on a durable queue), and the connection flushes
// the pending run before its next read. Only verdicts that cannot join a
// run are written directly, behind the run: nacks, mirror-stream
// verdicts, and (off this goroutine) ClusterConfirm.
func (ch *srvChannel) completePublish(p *pendingPublish) error {
	defer recyclePending(p)
	msg, method, seq := p.msg, &p.method, p.seq
	// The publisher's reference covers routing and the mandatory-return
	// write below; the queues' references are retained by vhost.Publish.
	defer msg.Release()
	ch.conn.srv.Stats.MessagesIn.Add(1)
	ch.conn.srv.Stats.BytesIn.Add(uint64(len(msg.Body)))
	if hook := ch.conn.srv.cfg.Cluster; hook != nil && IsMirrorExchange(method.Exchange) {
		// Inbound mirror-stream frame from a master's federation link:
		// apply to the standby replica and answer the link's confirm —
		// the ack IS the "mirror appended" signal the master's in-sync
		// accounting waits on.
		err := hook.ApplyMirror(ch.conn.vh.Name, method.Exchange, method.RoutingKey, msg)
		return ch.writeVerdict(seq, err == nil)
	}
	if hook := ch.conn.srv.cfg.Cluster; hook != nil && method.Exchange == "" {
		if _, local := hook.Lookup(ch.conn.vh.Name, method.RoutingKey); !local {
			// Default-exchange publish to a remotely-mastered queue:
			// forward over the federation link. Confirm-bridged — the
			// producer's ack waits for the master's verdict; without
			// confirm mode the forward is fire-and-forget, matching the
			// local no-confirm contract.
			target := ch.bridge(seq)
			if err := hook.ForwardPublish(ch.conn.vh.Name, method.RoutingKey, msg, target, seq); err != nil && seq != 0 {
				ch.bridged.Add(-1)
				return ch.writeVerdict(seq, false)
			}
			return nil
		}
		if hook.Replicated(ch.conn.vh.Name, method.RoutingKey) {
			// Locally mastered replicated queue: append locally (offset
			// tracked), then stream to mirrors. The producer's confirm is
			// withheld — ReplicateAppend resolves it via ClusterConfirm
			// once the in-sync set has appended (or lagging mirrors are
			// evicted).
			off, err := ch.conn.vh.PublishTracked(method.RoutingKey, msg)
			switch {
			case err != nil && errors.Is(err, ErrNotFound):
				return ch.exception(wire.ReplyNotFound, err.Error(), method)
			case err != nil:
				return ch.writeVerdict(seq, false)
			}
			if off == OffNone {
				// Transient queue: nothing durable to mirror.
				ch.confirmPublish(seq)
				return nil
			}
			hook.ReplicateAppend(ch.conn.vh.Name, method.RoutingKey, off, msg, ch.bridge(seq), seq)
			return nil
		}
	}
	routed, err := ch.conn.vh.Publish(method.Exchange, method.RoutingKey, msg)
	switch {
	case err != nil && errors.Is(err, ErrNotFound):
		return ch.exception(wire.ReplyNotFound, err.Error(), method)
	case err != nil:
		// Backpressure (queue full / memory alarm): reject-publish shows
		// up as a basic.nack in confirm mode so the producer can retry.
		return ch.writeVerdict(seq, false)
	case routed == 0 && method.Mandatory:
		ch.conn.flushConfirms()
		if err := ch.conn.writeContent(ch.id, &wire.BasicReturn{
			ReplyCode:  wire.ReplyNoRoute,
			ReplyText:  "NO_ROUTE",
			Exchange:   method.Exchange,
			RoutingKey: method.RoutingKey,
		}, &msg.Props, msg.Body); err != nil {
			return err
		}
	}
	ch.confirmPublish(seq)
	return nil
}

// confirmPublish queues the positive confirm of publish seq (0: the
// channel is not in confirm mode) for the connection's next flushConfirms.
func (ch *srvChannel) confirmPublish(seq uint64) {
	if seq == 0 {
		return
	}
	if len(ch.ackPending) == 0 {
		ch.conn.ackDirty = append(ch.conn.ackDirty, ch)
	}
	ch.ackPending = append(ch.ackPending, seq)
}

// writeVerdict writes the confirm of publish seq (0: none owed) directly,
// behind the pending confirms of earlier publishes. Serve goroutine only.
func (ch *srvChannel) writeVerdict(seq uint64, ok bool) error {
	if seq == 0 {
		return nil
	}
	ch.conn.flushConfirms()
	if ok {
		return ch.conn.writeMethod(ch.id, &wire.BasicAck{DeliveryTag: seq})
	}
	return ch.conn.writeMethod(ch.id, &wire.BasicNack{DeliveryTag: seq})
}

// bridge hands publish seq's confirm to the cluster hook: until
// ClusterConfirm resolves it, no multiple-ack of this channel may be sent.
// It returns the target to pass on — nil when no confirm is owed.
func (ch *srvChannel) bridge(seq uint64) ConfirmTarget {
	if seq == 0 {
		return nil
	}
	ch.bridged.Add(1)
	return ch
}

// redirectIfRemote answers a consume/get on a queue mastered elsewhere
// with a connection-level redirect: connection.close 302 whose reply-text
// carries the master's address. Consumers must sit on the master (that is
// where the ready ring and the segment log live), so the broker points
// the client there instead of proxying a delivery stream. Returning
// errConnClosed ends the serve loop cleanly after the close frame is on
// the wire. A nil return means the queue is local (or the node is not
// clustered) and the caller proceeds.
func (ch *srvChannel) redirectIfRemote(vhost, queue string, m wire.Method) error {
	hook := ch.conn.srv.cfg.Cluster
	if hook == nil {
		return nil
	}
	addr, local := hook.Lookup(vhost, queue)
	if local {
		return nil
	}
	hook.NoteRedirect(vhost, queue)
	classID, methodID := m.ID()
	_ = ch.conn.writeMethod(0, &wire.ConnectionClose{
		ReplyCode: wire.ReplyRedirect,
		ReplyText: addr,
		ClassID:   classID,
		MethodID:  methodID,
	})
	return errConnClosed
}

// ClusterConfirm relays a federated publish's bridged confirm verdict to
// the producer. It runs on the federation link's read loop; writeMethod
// serializes on the connection's write mutex, so concurrent local acks
// are safe. The bridged count drops only once the verdict is on the wire:
// a multiple-ack sent after that may cover the tag again, never instead.
// Errors are dropped — a failed write means the producer's connection is
// already going away and teardown owns the cleanup.
func (ch *srvChannel) ClusterConfirm(seq uint64, ok bool) {
	if ok {
		_ = ch.conn.writeMethod(ch.id, &wire.BasicAck{DeliveryTag: seq})
	} else {
		_ = ch.conn.writeMethod(ch.id, &wire.BasicNack{DeliveryTag: seq})
	}
	ch.bridged.Add(-1)
}
