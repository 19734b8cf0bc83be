package broker

import (
	"errors"
	"fmt"
	"sync"

	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// srvChannel is the server-side state of one client channel: consumers,
// the outbound core of its unsettled deliveries, and the inbound core of
// its publishes and their confirms.
type srvChannel struct {
	id   uint16
	conn *srvConn

	mu          sync.Mutex
	prefetch    int
	deliveryTag uint64
	consumers   map[string]*consumer
	out         outbound
	in          inbound
	closed      bool

	// Serve-goroutine state, no lock: whether the channel is on the
	// connection's ackDirty list, and the decode targets of this
	// channel's hot frames.
	listed bool
	slots  wire.Slots
}

func newSrvChannel(sc *srvConn, id uint16) *srvChannel {
	return &srvChannel{
		id:        id,
		conn:      sc,
		consumers: map[string]*consumer{},
	}
}

// teardown cancels consumers and requeues the unsettled deliveries in
// delivery-tag order (connection or channel close). Once ch.closed is set
// the delivery loop takes nothing more from this channel's consumers, so
// teardown alone returns what is left: each consumer's pending ring goes
// back to the head of its queue, then the unsettled deliveries, taken
// from those rings earlier, go back ahead of it.
func (ch *srvChannel) teardown() {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.closed = true
	consumers := ch.consumers
	unsettled := ch.out.teardown()
	cut := ch.in.teardown()
	ch.consumers = map[string]*consumer{}
	ch.mu.Unlock()

	if cut != nil {
		// A publish cut off mid-assembly: drop the half-built body.
		cut.Release()
	}
	for _, c := range consumers {
		c.q.RemoveConsumer(c)
	}
	applySettled(unsettled)
}

// exception appends a channel.close — after the confirms of the publishes
// that preceded the failure — and tears the channel down. Serve goroutine
// only.
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
	ch.conn.appendConfirms()
	ch.teardown()
	ch.conn.removeChannel(ch.id)
	return ch.send(&wire.ChannelClose{
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
		return ch.send(&wire.ChannelCloseOk{})
	case *wire.ChannelCloseOk:
		return nil
	case *wire.ChannelFlow:
		return ch.send(&wire.ChannelFlowOk{Active: x.Active})

	case *wire.ExchangeDeclare:
		if _, err := vh.DeclareExchange(x.Exchange, x.Type, x.Passive); err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		return ch.reply(x.NoWait, &wire.ExchangeDeclareOk{})
	case *wire.ExchangeDelete:
		if err := vh.DeleteExchange(x.Exchange, x.IfUnused); err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		return ch.reply(x.NoWait, &wire.ExchangeDeleteOk{})

	case *wire.QueueDeclare:
		if hook := ch.conn.srv.cfg.Cluster; hook != nil && x.Queue != "" {
			if _, local := hook.Lookup(vh.Name, x.Queue); !local {
				// Location-transparent declare: ensure the queue exists on
				// its master over the federation link and answer here, so
				// a client never needs to know placement to declare.
				if err := hook.EnsureRemoteQueue(vh.Name, x.Queue, x.Durable); err != nil {
					return ch.exception(wire.ReplyResourceError, err.Error(), m)
				}
				return ch.reply(x.NoWait, &wire.QueueDeclareOk{Queue: x.Queue})
			}
		}
		q, err := vh.DeclareQueue(x.Queue, x.Durable, x.Exclusive, x.AutoDelete, x.Passive, x.Arguments)
		if err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		if hook := ch.conn.srv.cfg.Cluster; hook != nil {
			hook.RegisterQueue(vh.Name, q.Name, x.Durable)
		}
		return ch.reply(x.NoWait, &wire.QueueDeclareOk{
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
		return ch.reply(x.NoWait, &wire.QueueBindOk{})
	case *wire.QueueUnbind:
		q, ok := vh.Queue(x.Queue)
		if !ok {
			return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), m)
		}
		if e, ok := vh.Exchange(x.Exchange); ok {
			e.Unbind(q, x.RoutingKey)
		}
		return ch.send(&wire.QueueUnbindOk{})
	case *wire.QueuePurge:
		q, ok := vh.Queue(x.Queue)
		if !ok {
			return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), m)
		}
		n := q.Purge()
		return ch.reply(x.NoWait, &wire.QueuePurgeOk{MessageCount: uint32(n)})
	case *wire.QueueDelete:
		n, err := vh.DeleteQueue(x.Queue, x.IfUnused, x.IfEmpty)
		if err != nil {
			return ch.exception(errorCode(err), err.Error(), m)
		}
		// Drop consumer entries that pointed at the deleted queue.
		ch.mu.Lock()
		for tag, c := range ch.consumers {
			if c.q.Name == x.Queue {
				delete(ch.consumers, tag)
			}
		}
		ch.mu.Unlock()
		return ch.reply(x.NoWait, &wire.QueueDeleteOk{MessageCount: uint32(n)})

	case *wire.BasicQos:
		ch.mu.Lock()
		ch.prefetch = int(x.PrefetchCount)
		ch.mu.Unlock()
		return ch.send(&wire.BasicQosOk{})
	case *wire.BasicConsume:
		return ch.basicConsume(x)
	case *wire.BasicCancel:
		ch.mu.Lock()
		c, ok := ch.consumers[x.ConsumerTag]
		delete(ch.consumers, x.ConsumerTag)
		ch.mu.Unlock()
		if ok {
			c.q.RemoveConsumer(c)
		}
		return ch.reply(x.NoWait, &wire.BasicCancelOk{ConsumerTag: x.ConsumerTag})
	case *wire.BasicPublish:
		ch.mu.Lock()
		err := ch.in.begin(x)
		ch.mu.Unlock()
		if err != nil {
			return fmt.Errorf("broker: %w on channel %d", err, ch.id)
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
		ch.in.confirm = true
		ch.mu.Unlock()
		return ch.reply(x.NoWait, &wire.ConfirmSelectOk{})
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
	} else {
		cons, err = q.AddConsumer(tag, x.NoAck, prefetch)
	}
	if err != nil {
		return ch.exception(errorCode(err), err.Error(), x)
	}
	ch.mu.Lock()
	closed := ch.closed
	if !closed {
		ch.consumers[tag] = cons
	}
	ch.mu.Unlock()
	if closed {
		// A server close tore the channel down meanwhile: nothing would
		// ever remove the consumer.
		q.RemoveConsumer(cons)
		return nil
	}

	// consume-ok is appended before the consumer is armed: once armed,
	// the delivery loop may append deliveries at once, and a client that
	// reads them before the -ok can have its consumer's buffer filled
	// while Consume still waits for the reply.
	err = ch.reply(x.NoWait, &wire.BasicConsumeOk{ConsumerTag: tag})
	// Hand delivery writing to the connection's event-driven loop: once
	// armed, the consumer is queued there whenever its ring holds
	// deliveries, so an idle consumer costs a map entry, not a parked
	// goroutine.
	q.arm(cons, ch)
	return err
}

// reply appends m, the -ok of a method, unless the method said no-wait.
func (ch *srvChannel) reply(noWait bool, m wire.Method) error {
	if noWait {
		return nil
	}
	return ch.send(m)
}

// send appends method m under ch.mu, behind every frame the channel
// appended in an earlier hold. The next kernel read flushes it.
func (ch *srvChannel) send(m wire.Method) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.conn.appendMethod(ch.id, m)
}

// maxDeliveryBatch and maxDeliveryBytes bound one delivery batch, which
// is one write and one queue-lock round-trip of completions: a 1 MiB
// body leaves in a write of its own.
const (
	maxDeliveryBatch = 16
	maxDeliveryBytes = 256 * 1024
)

// serveConsumer takes one bounded batch from a consumer's ring and writes
// it with one flush. It runs on the connection's delivery loop, which
// serves a consumer once per time it is queued, so its deliveries go out
// in order. Checking ch.closed, taking, issuing and appending share one
// ch.mu hold, so teardown finds a batch in the outbound core and the send
// buffer or not taken at all, and a cancel-ok appended after
// RemoveConsumer follows every delivery taken before the removal.
func (ch *srvChannel) serveConsumer(c *consumer) {
	var batch [maxDeliveryBatch]qitem
	sc := ch.conn
	offs := &sc.dispOffs
	n := 0
	ch.mu.Lock()
	if !ch.closed {
		n = c.q.take(c, batch[:])
	}
	if n == 0 {
		ch.mu.Unlock()
		return
	}
	sc.outMu.Lock()
	deliver := &sc.deliver
	deliver.ConsumerTag = c.tag
	for i, d := range batch[:n] {
		msg := d.msg
		ch.deliveryTag++
		offs[i] = d.off
		if !c.noAck {
			// The outbound entry takes over the queue's reference; the
			// send buffer's borrow needs its own, since once ch.mu drops
			// a teardown may requeue the message before the flush below.
			msg.Retain()
			ch.out.issue(ch.deliveryTag, c.q, c, msg, d.off)
		}
		// The redelivered flag travels with the entry (per-queue state),
		// so a concurrent requeue of the shared message cannot flip it.
		deliver.DeliveryTag = ch.deliveryTag
		deliver.Redelivered = d.redelivered
		deliver.Exchange = msg.Exchange
		deliver.RoutingKey = msg.RoutingKey
		sc.outFrames += sc.bufLocked().AppendContentFramesZC(ch.id, deliver, &msg.Props, msg.Body, sc.frameMax)
	}
	sc.outMu.Unlock()
	ch.mu.Unlock()
	sc.flush()
	deliveryBatches.Inc()
	deliveriesBatched.Add(int64(n))
	if c.noAck {
		// noAck deliveries resolve immediately: restore credit (even on a
		// dying connection the pop already happened) and drop the queue's
		// reference — the bytes are on the wire or lost, at-most-once.
		// On a durable queue that settlement is committed to the log;
		// replay deliveries commit nothing (the log is their source).
		c.q.AckN(c, n)
		if !c.replay {
			c.q.CommitAll(offs[:n])
		}
	}
	// Drop the send buffer's (noAck: the queue's) reference per message.
	for _, d := range batch[:n] {
		d.msg.Release()
	}
}

var (
	deliveryBatches   = telemetry.Default.Counter("broker.delivery_batches")
	deliveriesBatched = telemetry.Default.Counter("broker.deliveries_batched")
)

func (ch *srvChannel) basicGet(x *wire.BasicGet) error {
	vh := ch.conn.vh
	if err := ch.redirectIfRemote(vh.Name, x.Queue, x); err != nil {
		return err
	}
	q, ok := vh.Queue(x.Queue)
	if !ok {
		return ch.exception(wire.ReplyNotFound, fmt.Sprintf("no queue %q", x.Queue), x)
	}
	ch.mu.Lock()
	if ch.closed {
		// A server close tore the channel down: nothing is popped, and
		// the connection is on its way out.
		ch.mu.Unlock()
		return nil
	}
	msg, off, redelivered, remaining, ok := q.Get()
	if !ok {
		err := ch.conn.appendMethod(ch.id, &wire.BasicGetEmpty{})
		ch.mu.Unlock()
		return err
	}
	ch.deliveryTag++
	tag := ch.deliveryTag
	if !x.NoAck {
		// As in serveConsumer: the outbound entry takes the queue's
		// reference, the send buffer holds its own.
		msg.Retain()
		ch.out.issue(tag, q, nil, msg, off)
	}
	ch.sendContentLocked(&wire.BasicGetOk{
		DeliveryTag:  tag,
		Redelivered:  redelivered,
		Exchange:     msg.Exchange,
		RoutingKey:   msg.RoutingKey,
		MessageCount: uint32(remaining),
	}, msg)
	ch.mu.Unlock()
	// The flush ends the body's borrow; then drop the send buffer's
	// (NoAck: the queue's) reference. A NoAck get is a settlement, so the
	// durable offset commits.
	ch.conn.flush()
	msg.Release()
	if x.NoAck {
		q.Commit(off)
	}
	return nil
}

// sendContentLocked appends the frames of one message on this channel; a
// body chunk of 2 KiB or more is borrowed, not copied. The caller holds
// ch.mu, and a reference on msg until its flush returns.
func (ch *srvChannel) sendContentLocked(m wire.Method, msg *Message) {
	sc := ch.conn
	sc.outMu.Lock()
	sc.outFrames += sc.bufLocked().AppendContentFramesZC(ch.id, m, &msg.Props, msg.Body, sc.frameMax)
	sc.outMu.Unlock()
}

var (
	ackBatches  = telemetry.Default.Counter("broker.ack_batches")
	acksBatched = telemetry.Default.Counter("broker.acks_batched")
)

// basicAck settles deliveries through the channel's outbound core.
// ack=true acknowledges; ack=false with requeue returns messages to their
// queues; ack=false without requeue discards them (dead-lettering is out
// of scope).
func (ch *srvChannel) basicAck(tag uint64, multiple, ack, requeue bool) error {
	ch.mu.Lock()
	gs := ch.out.settle(tag, multiple, ack, requeue)
	ch.mu.Unlock()
	if n := applySettled(gs); multiple && n > 1 {
		ackBatches.Inc()
		acksBatched.Add(int64(n))
	}
	return nil
}

// applySettled does the queue work of settled deliveries, outside ch.mu,
// with one credit restore and one requeue or commit per group, and
// returns how many deliveries the groups hold. Requeue hands each
// message's reference back to its queue; ack and discard release it and
// commit the durable offset, since both settle the message for good and
// neither may replay after a restart.
func applySettled(gs []settleGroup) int {
	n := 0
	for i := range gs {
		g := &gs[i]
		n += len(g.msgs)
		if !g.requeue {
			// Drop the references before the credit below lets the queue
			// push more deliveries, so their bodies are back in the pool
			// first.
			for _, m := range g.msgs {
				m.Release()
			}
		}
		switch {
		case g.cons == nil:
		case g.ack:
			g.queue.AckN(g.cons, len(g.msgs))
		default:
			g.queue.ReleaseN(g.cons, len(g.msgs))
		}
		if g.requeue {
			g.queue.RequeueAll(g.msgs, g.offs)
		} else {
			g.queue.CommitAll(g.offs)
		}
	}
	return n
}

// onHeader receives the content header of an in-flight publish; the core
// creates its pooled message, presized from the header's BodySize so
// every body frame appends without reallocating.
func (ch *srvChannel) onHeader(h *wire.ContentHeader) error {
	ch.mu.Lock()
	p, done, err := ch.in.header(h, NewMessage)
	ch.mu.Unlock()
	switch {
	case errors.Is(err, errBodyLimit):
		return ch.exception(wire.ReplyPreconditionFailed, err.Error(), &wire.BasicPublish{})
	case err != nil:
		return fmt.Errorf("broker: %w on channel %d", err, ch.id)
	case done:
		return ch.completePublish(p)
	}
	return nil
}

// onBody receives a body frame of an in-flight publish, copying it into
// the presized pooled body (the frame payload itself is a reader loan
// recycled on the next read). A framing error the core reports ends the
// connection, and teardown releases the half-built message.
func (ch *srvChannel) onBody(b []byte) error {
	ch.mu.Lock()
	p, done, err := ch.in.body(b)
	ch.mu.Unlock()
	switch {
	case err != nil:
		return fmt.Errorf("broker: %w on channel %d", err, ch.id)
	case done:
		return ch.completePublish(p)
	}
	return nil
}

// completePublish routes one fully assembled publish and decides its
// confirm. A verdict known here is recorded on the channel's inbound
// core, and the connection flushes it before its next read; a forwarded
// or replicated publish's tag stays open until the hook resolves it
// through ClusterConfirm. No lock is held across a hook call, since the
// hook may call ClusterConfirm back on this goroutine.
func (ch *srvChannel) completePublish(p publish) error {
	msg, method, tag := p.msg, &p.method, p.tag
	vh, hook := ch.conn.vh, ch.conn.srv.cfg.Cluster
	// The publisher's reference covers routing and the mandatory return
	// below; the queues' references are retained by vhost.Publish.
	defer msg.Release()
	var target ConfirmTarget // the bridge, nil when no confirm is owed
	if tag != 0 {
		target = ch
	}
	if hook != nil && IsMirrorExchange(method.Exchange) {
		// Inbound mirror-stream frame from a master's federation link:
		// apply to the standby replica and answer the link's confirm —
		// the ack IS the "mirror appended" signal the master's in-sync
		// accounting waits on.
		ch.verdict(tag, hook.ApplyMirror(vh.Name, method.Exchange, method.RoutingKey, msg) == nil)
		return nil
	}
	direct := hook != nil && method.Exchange == ""
	if direct {
		if _, local := hook.Lookup(vh.Name, method.RoutingKey); !local {
			// Default-exchange publish to a remotely-mastered queue:
			// forward over the federation link. Confirm-bridged — the
			// producer's ack waits for the master's verdict; without
			// confirm mode the forward is fire-and-forget, matching the
			// local no-confirm contract.
			if hook.ForwardPublish(vh.Name, method.RoutingKey, msg, target, tag) != nil {
				ch.verdict(tag, false)
			}
			return nil
		}
	}
	routed := 1 // PublishTracked reaches its one queue or fails
	var err error
	if direct && hook.Replicated(vh.Name, method.RoutingKey) {
		// Locally mastered replicated queue: append locally (offset
		// tracked), then stream to mirrors. The producer's confirm is
		// withheld — ReplicateAppend resolves it via ClusterConfirm once
		// the gating mirrors have appended (or the lag clock lets them off).
		// A transient queue has nothing durable to mirror.
		var off uint64
		if off, err = vh.PublishTracked(method.RoutingKey, msg); err == nil && off != OffNone {
			hook.ReplicateAppend(vh.Name, method.RoutingKey, off, msg, target, tag)
			return nil
		}
	} else {
		routed, err = vh.Publish(method.Exchange, method.RoutingKey, msg)
	}
	switch {
	case errors.Is(err, ErrNotFound):
		return ch.exception(wire.ReplyNotFound, err.Error(), &wire.BasicPublish{})
	case err == nil && routed == 0 && method.Mandatory:
		// The flush ends the body's borrow before the deferred release.
		ch.conn.appendConfirms()
		ch.mu.Lock()
		ch.sendContentLocked(&wire.BasicReturn{
			ReplyCode:  wire.ReplyNoRoute,
			ReplyText:  "NO_ROUTE",
			Exchange:   method.Exchange,
			RoutingKey: method.RoutingKey,
		}, msg)
		ch.mu.Unlock()
		ch.conn.flush()
	}
	// Backpressure (queue full, memory alarm) nacks, so a producer in
	// confirm mode can retry.
	ch.verdict(tag, err == nil)
	return nil
}

// verdict records the serve goroutine's verdict on publish tag (0: none
// is owed) and lists the channel for the connection's next appendConfirms.
func (ch *srvChannel) verdict(tag uint64, ok bool) {
	if tag == 0 {
		return
	}
	ch.mu.Lock()
	ch.in.resolve(tag, ok)
	ch.mu.Unlock()
	if !ch.listed {
		ch.listed = true
		ch.conn.ackDirty = append(ch.conn.ackDirty, ch)
	}
}

// redirectIfRemote answers a consume/get on a queue mastered elsewhere
// with a connection-level redirect: connection.close 302 whose reply-text
// carries the master's address. Consumers must sit on the master (that is
// where the ready ring and the segment log live), so the broker points
// the client there instead of proxying a delivery stream. Returning
// errConnClosed ends the serve loop, whose exit flush puts the close
// frame on the wire. A nil return means the queue is local (or the node is not
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
	_ = ch.conn.appendMethod(0, &wire.ConnectionClose{
		ReplyCode: wire.ReplyRedirect,
		ReplyText: addr,
		ClassID:   classID,
		MethodID:  methodID,
	})
	return errConnClosed
}

// ClusterConfirm resolves a bridged publish's tag with the verdict of its
// master or mirrors, and sends what that made sendable on this channel.
// It runs on a federation link's read loop, or on the serve goroutine
// inside the hook call that bridged the publish. A channel closed since
// the publish drops the verdict: a channel reopened under its id numbers
// its own publishes from 1.
func (ch *srvChannel) ClusterConfirm(seq uint64, ok bool) {
	ch.mu.Lock()
	ch.in.resolve(seq, ok)
	ch.conn.appendVerdictsLocked(ch)
	ch.mu.Unlock()
	ch.conn.flush()
}
