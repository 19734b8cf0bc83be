package amqp

import (
	"errors"
	"fmt"
	"sync"

	"ds2hpc/internal/wire"
)

// Channel is a client channel: the unit of declaration, publishing, and
// consuming. One outstanding synchronous call is allowed at a time; content
// flows (deliveries, confirms, returns) are asynchronous and come from the
// connection's owner goroutine, which also closes every channel it sends
// on (see Connection). The channel's open completes with its first call
// that waits for a reply, which fails with the broker's *Error if the
// broker refused the open (see Connection.Channel).
type Channel struct {
	conn *Connection
	id   uint16

	// rpc carries replies from the owner, which closes it when the channel
	// ends. owed counts the replies due on it, ahead of the next call's
	// own, for methods written without waiting: channel.open, and a
	// replay's pipelined calls. Only the transport of ch.gen owes them; the
	// replay forgets what a dead one owed. quit, closed by Close, releases
	// the owner's sends to this channel's consumers and listeners.
	callMu sync.Mutex
	rpc    chan wire.Method
	owed   int
	quit   chan struct{}

	mu        sync.Mutex
	subs      subscriptions // confirm mode, prefetch and consumers to replay
	confirms  []chan Confirmation
	returns   []chan Return
	notifyCls []chan *Error
	log       confirmLog // confirm-mode publishes until their verdicts
	closed    bool
	exc       *Error // the broker's reason, when it closed the channel
	quitting  bool   // quit is closed

	// gen is the transport generation the channel's state was last
	// established on (its opening, or a replay); a method the replay
	// re-applies is recorded only while gen is the one it goes out on.
	// gate, written under conn.writeMu and mu, is non-nil from a transport
	// loss until the replay has re-opened the channel and written its
	// unresolved publishes: application writes wait for it to close.
	gen  chan struct{}
	gate chan struct{}

	// slots are the decode targets of this channel's hot frames, which
	// only the owner writes; in assembles content from them and keeps the
	// delivery-body loans of the transport epoch acker settles.
	slots wire.Slots
	in    inbound
	acker *epochAcker
}

// gotMessage is basic.get-ok with its content: Get's reply.
type gotMessage struct {
	wire.BasicGetOk
	d Delivery
}

// newChannel builds channel id; the caller holds c.mu.
func newChannel(c *Connection, id uint16) *Channel {
	ch := &Channel{
		conn: c,
		id:   id,
		rpc:  make(chan wire.Method, 8),
		quit: make(chan struct{}),
		subs: subscriptions{id: id},
		in:   inbound{held: map[uint64]*[]byte{}},
		gen:  c.genCh,
	}
	ch.cut(c.epoch)
	return ch
}

// retriable reports whether a synchronous method is safe to re-issue
// after a transport loss that may or may not have executed it. Deletes
// and purges are not: a retried delete of an already-deleted queue
// raises a channel-closing NOT_FOUND on the broker.
func retriable(m wire.Method) bool {
	switch m.(type) {
	case *wire.QueueDelete, *wire.ExchangeDelete, *wire.QueuePurge:
		return false
	}
	return true
}

// closedErr is nil while the channel is open; once it is closed, it is the
// broker's exception if the broker closed it, ErrClosed otherwise.
func (ch *Channel) closedErr() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	switch {
	case !ch.closed:
		return nil
	case ch.exc != nil:
		return ch.exc
	}
	return ErrClosed
}

// call sends a synchronous method and waits for its -ok response. On a
// reconnecting connection a call interrupted by a transport loss waits
// for the resume and re-issues itself — for idempotent methods only
// (declarations re-apply cleanly; deletes and purges instead surface the
// interruption). Without a policy the call fails fast.
func (ch *Channel) call(m wire.Method) (wire.Method, error) {
	return ch.invoke(m, false)
}

// invoke is call, or with noWait a write that awaits no reply.
func (ch *Channel) invoke(m wire.Method, noWait bool) (wire.Method, error) {
	for {
		gen, err := ch.conn.admit()
		if err != nil {
			return nil, err
		}
		resp, err := ch.callOnce(gen, m, noWait)
		if !errors.Is(err, errSuspended) || !retriable(m) {
			return resp, err
		}
	}
}

// callNoted issues m, a method the replay re-applies on every new
// transport, after note has recorded it in the channel's state. note runs
// under mu while the channel's state still belongs to the transport m
// goes out on, so either m lands there or the next transport's replay
// applies it — once either way, which is why an interrupted call is not
// re-issued but completes when the connection resumes.
func (ch *Channel) callNoted(m wire.Method, noWait bool, note func() error) error {
	for {
		gen, err := ch.conn.admit()
		if err != nil {
			return err
		}
		ch.mu.Lock()
		if ch.closed {
			ch.mu.Unlock()
			return ErrClosed
		}
		if ch.gen != gen {
			ch.mu.Unlock()
			continue // the transport changed since admit: wait out its replay
		}
		err = note()
		ch.mu.Unlock()
		if err != nil {
			return err
		}
		_, err = ch.callOnce(gen, m, noWait)
		if errors.Is(err, errSuspended) {
			if !ch.conn.awaitResume() {
				return ErrClosed
			}
			return nil
		}
		return err
	}
}

// callOnce is a single call attempt against the transport of generation
// gen; it fails with errSuspended when that transport is lost first.
func (ch *Channel) callOnce(gen chan struct{}, m wire.Method, noWait bool) (wire.Method, error) {
	ch.callMu.Lock()
	defer ch.callMu.Unlock()
	return ch.callLocked(gen, m, noWait)
}

// callLocked writes m and, unless noWait, reads the replies owed ahead of
// m's and then m's own. The caller holds callMu.
func (ch *Channel) callLocked(gen chan struct{}, m wire.Method, noWait bool) (wire.Method, error) {
	if err := ch.send(gen, m, true); err != nil {
		return nil, err
	}
	if noWait {
		return nil, nil
	}
	if err := ch.awaitOwed(gen); err != nil {
		return nil, err
	}
	return ch.recv(gen)
}

// send writes m on the transport of generation gen; after errSuspended it
// returns once the owner has seen the loss. The caller holds callMu.
func (ch *Channel) send(gen chan struct{}, m wire.Method, inline bool) error {
	if err := ch.closedErr(); err != nil {
		return err
	}
	err := ch.conn.writeMethodGen(gen, ch.id, m, inline)
	if err == errSuspended {
		<-gen // closed once the owner has seen the loss
	}
	return err
}

// open writes channel.open behind the scheduled flush, and the channel
// owes its reply to the next call that waits.
func (ch *Channel) open(gen chan struct{}) error {
	ch.callMu.Lock()
	defer ch.callMu.Unlock()
	err := ch.send(gen, &wire.ChannelOpen{}, false)
	if err == nil {
		ch.owed = 1
	}
	return err
}

// awaitOpen waits for what the channel owes, its open's reply on a fresh
// channel, without a call of its own. An open that a transport loss
// interrupted completes through the replay.
func (ch *Channel) awaitOpen() error {
	gen, err := ch.conn.admit()
	if err != nil {
		return err
	}
	ch.callMu.Lock()
	err = ch.awaitOwed(gen)
	ch.callMu.Unlock()
	if errors.Is(err, errSuspended) {
		if !ch.conn.awaitResume() {
			return ErrClosed
		}
		return nil
	}
	return err
}

// awaitOwed reads the replies the channel owes, under callMu. Each is an
// -ok, since a method that fails closes the channel instead.
func (ch *Channel) awaitOwed(gen chan struct{}) error {
	for ; ch.owed > 0; ch.owed-- {
		if _, err := ch.recv(gen); err != nil {
			return err
		}
	}
	return nil
}

// recv reads one reply on the transport of generation gen; it fails with
// errSuspended when that transport is lost first, and with closedErr when
// the channel ends.
func (ch *Channel) recv(gen chan struct{}) (wire.Method, error) {
	var resp wire.Method
	ok := true
	select {
	case resp, ok = <-ch.rpc:
	case <-gen:
		// The transport died mid-call. The reply may have raced in just
		// before the owner saw the loss; prefer it if so.
		select {
		case resp, ok = <-ch.rpc:
		default:
			return nil, errSuspended
		}
	}
	if !ok {
		return nil, ch.closedErr()
	}
	return resp, nil
}

// shutdown terminates the channel, closing its consumers' delivery
// channels and its listeners. Only the owner calls it. reply, when set,
// is the reply to queue for the caller waiting on rpc (Close's close-ok),
// which it reads once everything else is closed.
func (ch *Channel) shutdown(err *Error, reply wire.Method) {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.closed = true
	consumers := ch.subs.cons
	ch.subs.cons = nil
	confirms := ch.confirms
	ch.confirms = nil
	returns := ch.returns
	ch.returns = nil
	notify := ch.notifyCls
	ch.notifyCls = nil
	gate := ch.gate
	ch.log.close()
	// The application may still drain and read buffered deliveries after
	// shutdown: the core abandons their loans.
	ch.in.close()
	ch.recycle()
	ch.mu.Unlock()

	if gate != nil {
		close(gate) // writers waiting on it see the channel closed
	}
	for _, cc := range consumers {
		if cc.deliveries != nil {
			close(cc.deliveries)
		}
	}
	for _, cc := range confirms {
		close(cc)
	}
	for _, rc := range returns {
		close(rc)
	}
	notifyClosed(notify, err)
	if reply != nil {
		ch.reply(reply)
	}
	close(ch.rpc)
}

// Close performs an orderly channel shutdown and returns once the owner
// has closed the channel's deliveries and listeners. Never call it from a
// ConsumeFunc handler.
func (ch *Channel) Close() error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil
	}
	if !ch.quitting {
		ch.quitting = true
		close(ch.quit)
	}
	ch.mu.Unlock()
	_, err := ch.call(&wire.ChannelClose{ReplyCode: wire.ReplySuccess, ReplyText: "bye"})
	return err
}

// NotifyClose registers a listener for channel exceptions. The owner
// sends the exception, if the listener has room, then closes it. A
// listener registered after shutdown is closed at once.
func (ch *Channel) NotifyClose(c chan *Error) chan *Error {
	return listen(&ch.mu, &ch.closed, &ch.notifyCls, c)
}

// listen registers c on *list under mu, or closes it at once if *closed
// (the owner has shut the channel or connection down): the owner sends on
// and closes every listener.
func listen[T any](mu *sync.Mutex, closed *bool, list *[]chan T, c chan T) chan T {
	mu.Lock()
	defer mu.Unlock()
	if *closed {
		close(c)
	} else {
		*list = append(*list, c)
	}
	return c
}

// notifyClosed sends err, if any, to each listener with room, then
// closes it.
func notifyClosed(listeners []chan *Error, err *Error) {
	for _, n := range listeners {
		if err != nil {
			select {
			case n <- err:
			default:
			}
		}
		close(n)
	}
}

// --- owner-side dispatch ---

func (ch *Channel) onMethod(m wire.Method) {
	switch x := m.(type) {
	case *wire.ChannelClose:
		exc := &Error{Code: x.ReplyCode, Reason: x.ReplyText}
		ch.mu.Lock()
		ch.exc = exc
		ch.mu.Unlock()
		ch.conn.writeMethod(ch.id, &wire.ChannelCloseOk{})
		ch.conn.removeChannel(ch.id)
		ch.shutdown(exc, nil)
	case *wire.ChannelCloseOk:
		ch.conn.removeChannel(ch.id)
		ch.shutdown(nil, x)
	case *wire.BasicCancelOk:
		ch.mu.Lock()
		cc := ch.subs.find(x.ConsumerTag)
		ch.subs.drop(cc)
		ch.mu.Unlock()
		if cc != nil && cc.deliveries != nil {
			close(cc.deliveries)
		}
		ch.reply(x)
	case *wire.BasicDeliver, *wire.BasicGetOk, *wire.BasicReturn:
		ch.mu.Lock()
		cc := ch.subs.find(deliveryConsumer(m))
		ch.in.begin(m, cc != nil && !cc.spec.NoAck)
		ch.recycle()
		ch.mu.Unlock()
	case *wire.BasicAck:
		ch.dispatchConfirm(x.DeliveryTag, x.Multiple, true)
	case *wire.BasicNack:
		ch.dispatchConfirm(x.DeliveryTag, x.Multiple, false)
	default:
		ch.reply(m)
	}
}

// reply hands a synchronous reply to the caller waiting on rpc; with no
// waiter (a late -ok) it is dropped.
func (ch *Channel) reply(m wire.Method) {
	select {
	case ch.rpc <- m:
	default:
	}
}

// dispatchConfirm fans one broker verdict out to the listeners: one
// Confirmation per publish the log newly resolves, in sequence order. The
// broker batches (a multiple-ack covers every tag up to its own), and
// single verdicts (nacks, a federated queue's bridged confirms) may
// overtake a multiple-ack covering lower tags; the log confirms each
// publish exactly once either way.
func (ch *Channel) dispatchConfirm(tag uint64, multiple, ack bool) {
	ch.mu.Lock()
	seqs := ch.log.resolve(tag, multiple)
	// Only the owner resolves, closes listeners or sends on them, so both
	// slices may be read after unlocking: seqs stays the log's until the
	// owner's next verdict, and registration only appends past its length.
	listeners := ch.confirms
	ch.mu.Unlock()
	for _, s := range seqs {
		for _, l := range listeners {
			send(ch, l, Confirmation{DeliveryTag: s, Ack: ack})
		}
	}
}

// send blocks on a full listener until it drains or the channel or
// connection is being closed.
func send[T any](ch *Channel, l chan T, v T) {
	select {
	case l <- v: // the common case, without locking the stop channels
		return
	default:
	}
	select {
	case l <- v:
	case <-ch.quit:
	case <-ch.conn.quit:
	}
}

// onHeader and onBody feed the receive core one content frame each and
// hand a completed message to its receiver. An error (a header no buffer
// should be sized from, a body frame overrunning its header) fails the
// connection.
func (ch *Channel) onHeader(h *wire.ContentHeader) *Error {
	ch.mu.Lock()
	return ch.assembled(ch.in.header(h, wire.LoanBuf))
}

func (ch *Channel) onBody(b []byte) *Error {
	ch.mu.Lock()
	return ch.assembled(ch.in.body(b))
}

// recycle hands the loans the core let go back to the pool, or to the
// garbage collector; the caller holds mu.
func (ch *Channel) recycle() {
	release, abandon := ch.in.out()
	for _, p := range release {
		wire.ReleaseBuf(p)
	}
	for _, p := range abandon {
		wire.AbandonBuf(p)
	}
}

// deliveryConsumer is the consumer tag of a basic.deliver, "" otherwise.
func deliveryConsumer(m wire.Method) string {
	if d, ok := m.(*wire.BasicDeliver); ok {
		return d.ConsumerTag
	}
	return ""
}

// assembled ends a core step, entered under mu: it recycles, unlocks and,
// when the step completed c, hands it to its receiver — a delivery to its
// consumer's callback, a get-ok to the Get waiting on rpc, a return to the
// return listeners.
func (ch *Channel) assembled(c content, done bool, e *Error) *Error {
	ch.recycle()
	if !done {
		ch.mu.Unlock()
		return e
	}
	acker, listeners := ch.acker, ch.returns
	cc := ch.subs.find(deliveryConsumer(c.method))
	ch.mu.Unlock()
	d := deliveryFromProps(&c.header.Properties)
	d.Acknowledger, d.Body = acker, c.body
	switch m := c.method.(type) {
	case *wire.BasicDeliver:
		if cc == nil {
			return e
		}
		d.ConsumerTag, d.DeliveryTag, d.Redelivered = m.ConsumerTag, m.DeliveryTag, m.Redelivered
		d.Exchange, d.RoutingKey = m.Exchange, m.RoutingKey
		// Every consumer is a callback run on the owner: no goroutine per
		// idle consumer, and a slow one — or Consume's adapter on a full
		// channel — throttles the socket like a TCP receive window.
		cc.fn(d)
	case *wire.BasicGetOk:
		d.DeliveryTag, d.Redelivered, d.MessageCount = m.DeliveryTag, m.Redelivered, m.MessageCount
		d.Exchange, d.RoutingKey = m.Exchange, m.RoutingKey
		ch.reply(&gotMessage{BasicGetOk: *m, d: d})
	case *wire.BasicReturn:
		ret := Return{ReplyCode: m.ReplyCode, ReplyText: m.ReplyText, Exchange: m.Exchange, RoutingKey: m.RoutingKey, Body: c.body}
		for _, l := range listeners {
			send(ch, l, ret)
		}
	}
	return e
}

// --- declarations ---

// QueueDeclare declares a queue.
func (ch *Channel) QueueDeclare(name string, durable, autoDelete, exclusive, noWait bool, args Table) (Queue, error) {
	m := &wire.QueueDeclare{
		Queue: name, Durable: durable, AutoDelete: autoDelete,
		Exclusive: exclusive, NoWait: noWait, Arguments: args,
	}
	resp, err := ch.invoke(m, noWait)
	if err != nil || noWait {
		return Queue{Name: name}, err
	}
	ok, good := resp.(*wire.QueueDeclareOk)
	if !good {
		return Queue{}, fmt.Errorf("amqp: unexpected response %T", resp)
	}
	return Queue{Name: ok.Queue, Messages: int(ok.MessageCount), Consumers: int(ok.ConsumerCount)}, nil
}

// QueueBind binds a queue to an exchange.
func (ch *Channel) QueueBind(name, key, exchange string, noWait bool, args Table) error {
	_, err := ch.call(&wire.QueueBind{Queue: name, Exchange: exchange, RoutingKey: key, Arguments: args})
	return err
}

// QueueUnbind removes a binding.
func (ch *Channel) QueueUnbind(name, key, exchange string, args Table) error {
	_, err := ch.call(&wire.QueueUnbind{Queue: name, Exchange: exchange, RoutingKey: key, Arguments: args})
	return err
}

// QueuePurge drops all ready messages, reporting how many.
func (ch *Channel) QueuePurge(name string, noWait bool) (int, error) {
	resp, err := ch.call(&wire.QueuePurge{Queue: name})
	if err != nil {
		return 0, err
	}
	ok, good := resp.(*wire.QueuePurgeOk)
	if !good {
		return 0, fmt.Errorf("amqp: unexpected response %T", resp)
	}
	return int(ok.MessageCount), nil
}

// QueueDelete removes a queue.
func (ch *Channel) QueueDelete(name string, ifUnused, ifEmpty, noWait bool) (int, error) {
	resp, err := ch.call(&wire.QueueDelete{Queue: name, IfUnused: ifUnused, IfEmpty: ifEmpty})
	if err != nil {
		return 0, err
	}
	ok, good := resp.(*wire.QueueDeleteOk)
	if !good {
		return 0, fmt.Errorf("amqp: unexpected response %T", resp)
	}
	return int(ok.MessageCount), nil
}

// ExchangeDeclare declares an exchange of the given kind.
func (ch *Channel) ExchangeDeclare(name, kind string, durable, autoDelete, internal, noWait bool, args Table) error {
	_, err := ch.call(&wire.ExchangeDeclare{
		Exchange: name, Type: kind, Durable: durable,
		AutoDelete: autoDelete, Internal: internal, Arguments: args,
	})
	return err
}

// ExchangeDelete removes an exchange.
func (ch *Channel) ExchangeDelete(name string, ifUnused, noWait bool) error {
	_, err := ch.call(&wire.ExchangeDelete{Exchange: name, IfUnused: ifUnused})
	return err
}

// --- QoS / confirm ---

// Qos sets the prefetch window applied to subsequent consumers; a
// reconnect re-applies to each consumer the window it subscribed under.
func (ch *Channel) Qos(prefetchCount, prefetchSize int, global bool) error {
	m := &wire.BasicQos{
		PrefetchSize: uint32(prefetchSize), PrefetchCount: uint16(prefetchCount), Global: global,
	}
	return ch.callNoted(m, false, func() error {
		ch.subs.qos = *m
		return nil
	})
}

// Confirm puts the channel into publisher-confirm mode.
func (ch *Channel) Confirm(noWait bool) error {
	return ch.callNoted(&wire.ConfirmSelect{NoWait: noWait}, noWait, func() error {
		ch.subs.confirm = true
		ch.log.keep = ch.conn.reconnectEnabled()
		return nil
	})
}

// NotifyPublish registers a confirm listener; the channel must be in
// confirm mode. The connection's owner sends every Confirmation on it and
// closes it when the channel ends. Drain it: a full listener stalls the
// whole connection (no frame is read) until it drains or Close is called,
// and Close then closes it.
func (ch *Channel) NotifyPublish(c chan Confirmation) chan Confirmation {
	return listen(&ch.mu, &ch.closed, &ch.confirms, c)
}

// NotifyReturn registers a listener for unroutable mandatory messages,
// under the same contract as NotifyPublish.
func (ch *Channel) NotifyReturn(c chan Return) chan Return {
	return listen(&ch.mu, &ch.closed, &ch.returns, c)
}

// GetNextPublishSeqNo returns the sequence number the next Publish will use
// in confirm mode.
func (ch *Channel) GetNextPublishSeqNo() uint64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.log.seq + 1
}

// --- publish / consume ---

// Publish sends a message to an exchange. A nil error means the
// connection accepted it: a body of 64 KiB or more is written, a smaller
// one is written or queued, behind at most 64 KiB, for a flush already
// scheduled, which any other write on the connection (an RPC, an ack,
// Close) carries out first. A socket that died meanwhile surfaces on the
// next inline write, NotifyClose, ErrClosed or the closed confirm channel,
// like bytes the kernel had accepted. A confirm remains the only delivery
// guarantee, and a process must Close before exiting.
//
// In confirm mode the publish takes its sequence number as its frames are
// appended, in wire order; one rejected before that (a marshal error, a
// closed channel) takes none. On a reconnecting connection the channel's
// log also keeps it until the broker resolves it: if the transport dies
// first, the reconnect replays it, so Publish reports success and the
// confirm (or the closed confirm channel, if the reconnect budget runs
// out) carries the final verdict — the same contract as a confirm-mode
// publish that made it onto the wire. A publish made during an outage
// waits until the reconnect has re-opened the channel.
func (ch *Channel) Publish(exchange, key string, mandatory, immediate bool, msg Publishing) error {
	return ch.conn.writeContent(ch, &pendingPublish{
		exchange: exchange, key: key, mandatory: mandatory, immediate: immediate, msg: msg,
	})
}

// Consume starts a consumer and returns its delivery channel. It is an
// adapter over the callback path ConsumeFunc uses: the callback, run by
// the connection's owner, sends each delivery on a channel buffered to
// 16, so an undrained channel stalls the connection until Cancel, Close
// or the connection's Close, and the owner closes it when the consumer
// ends.
func (ch *Channel) Consume(queue, consumerTag string, autoAck, exclusive, noLocal, noWait bool, args Table) (<-chan Delivery, error) {
	cc := ch.channelConsumer()
	if _, err := ch.consume(queue, consumerTag, autoAck, exclusive, noLocal, args, cc); err != nil {
		return nil, err
	}
	return cc.deliveries, nil
}

// channelConsumer builds Consume's adapter: a callback consumer whose
// callback hands each delivery to a buffered channel, giving up on it once
// the consumer is cancelled or its channel or connection is being closed.
func (ch *Channel) channelConsumer() *clientConsumer {
	// The buffer lets the owner hand over a burst without waiting on the
	// consumer goroutine for each delivery.
	cc := &clientConsumer{deliveries: make(chan Delivery, 16), cancel: make(chan struct{})}
	quit, connQuit := ch.quit, ch.conn.quit
	cc.fn = func(d Delivery) {
		select {
		case cc.deliveries <- d: // the common case, without locking the stop channels
			return
		default:
		}
		select {
		case cc.deliveries <- d:
		case <-cc.cancel:
		case <-quit:
		case <-connQuit:
		}
	}
	return cc
}

// ConsumeFunc starts a callback consumer: fn runs for every delivery,
// invoked directly by the connection's owner goroutine, so an idle
// consumer costs a slice entry instead of a goroutine parked on a channel.
// This is what lets one multiplexed connection carry thousands of logical
// consumers (see ClientPool). It returns the (possibly generated)
// consumer tag for Cancel.
//
// Because fn runs on the owner, it must not make synchronous calls
// (declares, Qos, Consume, Get, Cancel, Close) on any channel of the same
// connection, nor close the connection — the reply could never be read,
// and Close waits for the owner. Asynchronous operations (Publish,
// Ack/Nack/Reject) are safe, as is anything on a different connection. A
// slow fn exerts backpressure on the whole shared connection, exactly
// like an undrained Consume channel. On reconnecting connections the
// subscription is replayed like any other consumer; fn is retained across
// transport epochs.
func (ch *Channel) ConsumeFunc(queue, consumerTag string, autoAck, exclusive, noLocal bool, args Table, fn func(Delivery)) (string, error) {
	if fn == nil {
		return "", errors.New("amqp: ConsumeFunc requires a handler")
	}
	return ch.consume(queue, consumerTag, autoAck, exclusive, noLocal, args, &clientConsumer{fn: fn})
}

// consume registers cc under consumerTag (generating one if empty) and
// issues basic.consume. The registration is the replay's record: a
// subscription interrupted by a transport loss completes through the
// replay.
func (ch *Channel) consume(queue, consumerTag string, autoAck, exclusive, noLocal bool, args Table, cc *clientConsumer) (string, error) {
	cc.spec = wire.BasicConsume{Queue: queue, NoAck: autoAck, Exclusive: exclusive, NoLocal: noLocal, Arguments: args}
	err := ch.callNoted(&cc.spec, false, func() (err error) {
		consumerTag, err = ch.subs.add(consumerTag, cc)
		return err
	})
	if err != nil {
		ch.mu.Lock()
		ch.subs.drop(cc)
		ch.mu.Unlock()
		return "", err
	}
	return consumerTag, nil
}

// Cancel stops a consumer and returns once the owner has removed it and
// closed its delivery channel (if any); deliveries still in flight for it
// are dropped rather than waited on. Never call it from a ConsumeFunc
// handler.
func (ch *Channel) Cancel(consumerTag string, noWait bool) error {
	ch.mu.Lock()
	if cc := ch.subs.find(consumerTag); cc != nil && !cc.cancelled {
		cc.cancelled = true
		if cc.cancel != nil {
			close(cc.cancel)
		}
	}
	ch.mu.Unlock()
	_, err := ch.call(&wire.BasicCancel{ConsumerTag: consumerTag})
	return err
}

// Get synchronously fetches one message; ok is false if the queue is
// empty. Like any call, a Get interrupted by a transport loss on a
// reconnecting connection waits out the resume and re-issues itself.
func (ch *Channel) Get(queue string, autoAck bool) (Delivery, bool, error) {
	resp, err := ch.call(&wire.BasicGet{Queue: queue, NoAck: autoAck})
	if err != nil {
		return Delivery{}, false, err
	}
	if got, ok := resp.(*gotMessage); ok {
		return got.d, true, nil
	}
	return Delivery{}, false, nil // basic.get-empty
}

// --- Acknowledger ---

// cut starts transport epoch epoch on the receive side, under mu: the core
// abandons the loans the application holds, and deliveries get a new acker.
func (ch *Channel) cut(epoch uint64) {
	ch.in.cut(epoch)
	ch.recycle()
	ch.acker = &epochAcker{ch: ch, epoch: epoch}
}

// settle resolves deliveries of transport epoch epoch: the core releases
// their loans (the application promised it is done with the bodies), and
// the resolution is written unless that epoch has ended.
func (ch *Channel) settle(epoch uint64, kind settleKind, tag uint64, multiple, requeue bool) error {
	ch.mu.Lock()
	ch.in.settle(epoch, tag, multiple)
	ch.recycle()
	ch.mu.Unlock()
	return ch.conn.writeSettle(ch, epoch, kind, tag, multiple, requeue)
}

// epochAcker is the Acknowledger of one transport epoch's deliveries. After
// a transport loss the broker requeues them, so their resolutions are
// dropped instead of misapplied to the tags the new transport reuses — as
// is one whose write fails on a reconnecting connection, a transport going.
type epochAcker struct {
	ch    *Channel
	epoch uint64
}

func (a *epochAcker) Ack(tag uint64, multiple bool) error {
	return a.settle(settleAck, tag, multiple, false)
}

func (a *epochAcker) Nack(tag uint64, multiple, requeue bool) error {
	return a.settle(settleNack, tag, multiple, requeue)
}

func (a *epochAcker) Reject(tag uint64, requeue bool) error {
	return a.settle(settleReject, tag, false, requeue)
}

func (a *epochAcker) settle(kind settleKind, tag uint64, multiple, requeue bool) error {
	err := a.ch.settle(a.epoch, kind, tag, multiple, requeue)
	if err != nil && a.ch.conn.reconnectEnabled() {
		staleAcksDropped.Inc()
		return nil
	}
	return err
}

// reopenCalls is the first replay round's part for this channel (see
// Connection.pipeline), under callMu: the channel's state now belongs to
// the transport of generation gen, what a dead transport owed is
// forgotten, and the calls are channel.open and, in confirm mode,
// confirm.select. A closed channel re-issues nothing.
func (ch *Channel) reopenCalls(gen chan struct{}) []wire.Method {
	ch.owed = 0
	for range len(ch.rpc) {
		<-ch.rpc // only callMu's holder receives: this cannot block
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return nil
	}
	ch.gen = gen
	calls := []wire.Method{&wire.ChannelOpen{}}
	if ch.subs.confirm {
		calls = append(calls, &wire.ConfirmSelect{})
	}
	return calls
}

// resume ends the first replay round for a re-opened channel: every
// publish the log holds unresolved is republished in sequence order under
// the tags 1..k the log renumbers them to, and the channel's gate opens
// behind them.
func (ch *Channel) resume(gen chan struct{}) error {
	c := ch.conn
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	live := c.genCh == gen
	c.mu.Unlock()
	if !live {
		return errSuspended
	}
	// Renumbered under writeMu, so the tags are the replayed publishes' wire
	// order, ahead of any publish waiting on the gate.
	ch.mu.Lock()
	pend := ch.log.replay(nil)
	ch.mu.Unlock()
	for _, p := range pend {
		w, frames, err := c.encodePublishLocked(ch.id, p)
		if err != nil {
			continue // unreachable: it encoded when first published
		}
		c.sendLocked(w, frames, false) // a dead socket is the next replay's
		wire.PutWriter(w)
		replayedPublishes.Inc()
	}
	ch.mu.Lock()
	if ch.gate != nil && !ch.closed {
		close(ch.gate)
		ch.gate = nil
	}
	ch.mu.Unlock()
	return nil
}

// subscriptionCalls is the second replay round's part: the record's
// basic.qos and basic.consume calls. It is read under callMu, which
// Cancel's basic.cancel also takes, so a consumer cancelled by then is
// skipped and one cancelled later is cancelled on this transport too; a
// tag is never subscribed twice on one transport.
func (ch *Channel) subscriptionCalls(chan struct{}) []wire.Method {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return nil
	}
	return ch.subs.replay()
}
