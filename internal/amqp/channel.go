package amqp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ds2hpc/internal/wire"
)

// Channel is a client channel: the unit of declaration, publishing, and
// consuming. One outstanding synchronous call is allowed at a time; content
// flows (deliveries, confirms, returns) are asynchronous.
type Channel struct {
	conn *Connection
	id   uint16

	callMu sync.Mutex
	rpc    chan wire.Method
	gets   chan getResult

	mu            sync.Mutex
	consumers     map[string]*clientConsumer
	consumerSeq   int
	confirms      []chan Confirmation
	returns       []chan Return
	notifyCls     []chan *Error
	confirmMode   bool
	publishSeq    uint64
	confirmExpect uint64              // every confirm tag at or below it is resolved
	confirmAhead  map[uint64]struct{} // tags above confirmExpect resolved singly
	closed        bool

	// Reconnect replay state (nil maps on legacy connections). pending
	// holds confirm-mode publishes the broker has not yet resolved,
	// keyed by client sequence number; pubMap maps the current
	// transport's broker confirm tags back onto those sequence numbers;
	// qosSpec and consumeSpecs record declarations to re-apply.
	pending   map[uint64]*pendingPublish
	pubMap    map[uint64]uint64
	brokerSeq uint64
	mapEpoch  uint64 // transport epoch pubMap/brokerSeq are valid for
	// replayedThrough is the highest client sequence number covered by a
	// resume's replay: every publish at or below it was either already
	// resolved or republished by the replay, so its own (blocked) write
	// must not also reach the wire.
	replayedThrough uint64
	qosSpec         *wire.BasicQos
	consumeSpecs    map[string]*wire.BasicConsume
	// consumeEpochs records, per consumer tag, the transport epoch its
	// basic.consume last landed on, so overlapping replay passes never
	// subscribe a tag twice on the same transport.
	consumeEpochs map[string]uint64
	acker         Acknowledger // epoch-scoped acker; nil = the channel itself

	// incoming content assembly
	pendKind    pendKind
	pendDeliver *wire.BasicDeliver
	pendGetOk   *wire.BasicGetOk
	pendReturn  *wire.BasicReturn
	pendHeader  *wire.ContentHeader
	pendBody    []byte
	// pendLoan backs pendBody with a wire-pool buffer when the content
	// under assembly is a manual-ack consumer delivery; nil otherwise.
	pendLoan *[]byte

	// loans maps outstanding delivery tags to the pooled buffers backing
	// their bodies, for the transport epoch loansEpoch. Resolving a
	// delivery (ack/nack/reject, including multiple) returns the buffer
	// to the pool; a reconnect abandons the epoch's loans to the garbage
	// collector, since the application may still hold those bodies.
	loans      map[uint64]*[]byte
	loansEpoch uint64
}

// clientConsumer is one registered consumer: its delivery stream plus the
// ack mode, which decides whether delivery bodies may live on pooled
// buffers (manual ack has a resolution point to release at; autoAck hands
// body ownership to the application outright). Exactly one of deliveries
// and fn is set: channel consumers get a buffered stream drained by their
// own goroutine; callback consumers (ConsumeFunc) are invoked straight
// from the connection read loop and cost no goroutine while idle.
type clientConsumer struct {
	deliveries chan Delivery
	fn         func(Delivery)
	noAck      bool
}

type pendKind int

const (
	pendNone pendKind = iota
	pendDeliverKind
	pendGetOkKind
	pendReturnKind
)

type getResult struct {
	d     *Delivery
	empty bool
}

func newChannel(c *Connection, id uint16) *Channel {
	ch := &Channel{
		conn:      c,
		id:        id,
		rpc:       make(chan wire.Method, 8),
		gets:      make(chan getResult, 1),
		consumers: map[string]*clientConsumer{},
		loans:     map[uint64]*[]byte{},
	}
	if c.reconnectEnabled() {
		ch.consumeSpecs = map[string]*wire.BasicConsume{}
		ch.consumeEpochs = map[string]uint64{}
		// The caller (Connection.Channel) holds c.mu, so read the epoch
		// field directly rather than through currentEpoch.
		ch.acker = &epochAcker{ch: ch, epoch: c.epoch}
		ch.mapEpoch = c.epoch
	}
	return ch
}

// pendingPublish is one confirm-mode publish awaiting broker resolution,
// retained so a reconnect can replay it.
type pendingPublish struct {
	exchange, key        string
	mandatory, immediate bool
	msg                  Publishing
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

// call sends a synchronous method and waits for its -ok response. On a
// reconnecting connection a call interrupted by a transport loss waits
// for the resume and re-issues itself — for idempotent methods only
// (declarations re-apply cleanly, a freshly-created channel re-opens
// empty, consume specs are only recorded — and hence only auto-replayed
// — after a successful call; deletes and purges instead surface the
// interruption). Without a policy the call fails fast, as before.
func (ch *Channel) call(m wire.Method) (wire.Method, error) {
	resp, _, err := ch.callE(m)
	return resp, err
}

// callE is call, additionally reporting the transport epoch the
// successful attempt landed on.
func (ch *Channel) callE(m wire.Method) (wire.Method, uint64, error) {
	for {
		resp, epoch, err := ch.callOnce(m)
		if err == nil || !ch.conn.reconnectEnabled() ||
			!errors.Is(err, errSuspended) || !retriable(m) {
			return resp, epoch, err
		}
		// Transport loss mid-call: wait out the reconnect and re-issue.
		if !ch.conn.awaitResume() {
			return nil, 0, ErrClosed
		}
	}
}

// callOnce is a single call attempt; it fails with errSuspended when a
// transport loss interrupts it, and on success reports the transport
// epoch the method landed on (the write is generation-validated, so the
// captured epoch is exact).
func (ch *Channel) callOnce(m wire.Method) (wire.Method, uint64, error) {
	ch.callMu.Lock()
	defer ch.callMu.Unlock()
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil, 0, ErrClosed
	}
	ch.mu.Unlock()
	gen, suspended, epoch := ch.conn.genState()
	if suspended {
		return nil, 0, errSuspended
	}
	if err := ch.conn.writeMethodGen(gen, ch.id, m); err != nil {
		if err == errSuspended {
			// The read loop may not have noticed the dead socket yet;
			// don't spin against it.
			time.Sleep(time.Millisecond)
		}
		return nil, 0, err
	}
	select {
	case resp, ok := <-ch.rpc:
		if !ok {
			return nil, 0, ErrClosed
		}
		return resp, epoch, nil
	case <-gen:
		// The transport died mid-call. The reply may have raced in just
		// before the read loop exited; prefer it if so.
		select {
		case resp, ok := <-ch.rpc:
			if !ok {
				return nil, 0, ErrClosed
			}
			return resp, epoch, nil
		default:
			return nil, 0, errSuspended
		}
	}
}

// shutdown terminates the channel, notifying consumers and listeners.
func (ch *Channel) shutdown(err *Error) {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.closed = true
	consumers := ch.consumers
	ch.consumers = map[string]*clientConsumer{}
	confirms := ch.confirms
	ch.confirms = nil
	returns := ch.returns
	ch.returns = nil
	notify := ch.notifyCls
	ch.notifyCls = nil
	// Unresolved delivery bodies: the application may still drain and
	// read buffered deliveries after shutdown, so abandon their loans to
	// the garbage collector rather than recycling under the holder. The
	// half-assembled body (if any) was never handed out — recycle it.
	for t, p := range ch.loans {
		delete(ch.loans, t)
		wire.AbandonBuf(p)
	}
	pendLoan := ch.pendLoan
	ch.pendLoan = nil
	ch.pendBody = nil
	ch.mu.Unlock()
	wire.ReleaseBuf(pendLoan)

	close(ch.rpc)
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
	for _, n := range notify {
		if err != nil {
			select {
			case n <- err:
			default:
			}
		}
		close(n)
	}
}

// Close performs an orderly channel shutdown.
func (ch *Channel) Close() error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil
	}
	ch.mu.Unlock()
	_, err := ch.call(&wire.ChannelClose{ReplyCode: wire.ReplySuccess, ReplyText: "bye"})
	ch.conn.removeChannel(ch.id)
	ch.shutdown(nil)
	return err
}

// NotifyClose registers a listener for channel exceptions.
func (ch *Channel) NotifyClose(c chan *Error) chan *Error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		close(c)
		return c
	}
	ch.notifyCls = append(ch.notifyCls, c)
	return c
}

// --- reader-side dispatch (called from the connection read loop) ---

func (ch *Channel) onMethod(m wire.Method) {
	switch x := m.(type) {
	case *wire.ChannelClose:
		ch.conn.writeMethod(ch.id, &wire.ChannelCloseOk{})
		ch.conn.removeChannel(ch.id)
		ch.shutdown(&Error{Code: x.ReplyCode, Reason: x.ReplyText})
	case *wire.BasicDeliver:
		ch.mu.Lock()
		ch.pendKind = pendDeliverKind
		ch.pendDeliver = x
		ch.mu.Unlock()
	case *wire.BasicGetOk:
		ch.mu.Lock()
		ch.pendKind = pendGetOkKind
		ch.pendGetOk = x
		ch.mu.Unlock()
	case *wire.BasicGetEmpty:
		select {
		case ch.gets <- getResult{empty: true}:
		default:
		}
	case *wire.BasicReturn:
		ch.mu.Lock()
		ch.pendKind = pendReturnKind
		ch.pendReturn = x
		ch.mu.Unlock()
	case *wire.BasicAck:
		ch.dispatchConfirm(x.DeliveryTag, x.Multiple, true)
	case *wire.BasicNack:
		ch.dispatchConfirm(x.DeliveryTag, x.Multiple, false)
	default:
		select {
		case ch.rpc <- m:
		default:
			// No waiter; drop (e.g. late -ok after timeout).
		}
	}
}

// dispatchConfirm fans one broker confirm out to the listeners, one
// Confirmation per publish it newly resolves. The broker batches: a
// multiple-ack covers every tag up to its own that is not resolved yet,
// and single verdicts (nacks, a federated queue's bridged confirms) may
// arrive before a multiple-ack that covers lower tags, so resolution is
// tracked per tag — each publish is confirmed exactly once.
func (ch *Channel) dispatchConfirm(tag uint64, multiple, ack bool) {
	ch.mu.Lock()
	from, skip := ch.resolveConfirmLocked(tag, multiple)
	var seqs []uint64
	if ch.pending != nil {
		// Reconnect-tracked channel: broker tags are per-transport, so
		// translate them through pubMap back to client sequence numbers
		// and release the resolved publishes from the replay set.
		for t := from; t <= tag; t++ {
			if s, ok := ch.pubMap[t]; ok {
				delete(ch.pubMap, t)
				delete(ch.pending, s)
				seqs = append(seqs, s)
			}
		}
	}
	if len(ch.confirms) == 0 {
		// No listeners registered: nothing to fan out (the common
		// fire-and-forget publisher), skip the listener-slice copy.
		ch.mu.Unlock()
		return
	}
	listeners := append([]chan Confirmation(nil), ch.confirms...)
	tracked := ch.pending != nil
	ch.mu.Unlock()
	if tracked {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs {
			for _, l := range listeners {
				l <- Confirmation{DeliveryTag: s, Ack: ack}
			}
		}
		return
	}
	for t := from; t <= tag; t++ {
		if _, dup := skip[t]; dup {
			continue
		}
		for _, l := range listeners {
			l <- Confirmation{DeliveryTag: t, Ack: ack}
		}
	}
}

// resolveConfirmLocked marks the tags a confirm covers as resolved and
// returns the range [from, tag] it newly resolves, less the tags in skip,
// which single verdicts resolved earlier. An empty range (from > tag)
// means a duplicate. confirmExpect is the frontier — every tag at or
// below it is resolved — and confirmAhead the single verdicts above it.
func (ch *Channel) resolveConfirmLocked(tag uint64, multiple bool) (from uint64, skip map[uint64]struct{}) {
	_, ahead := ch.confirmAhead[tag]
	switch {
	case tag <= ch.confirmExpect || (ahead && !multiple):
		return tag + 1, nil
	case multiple:
		from = ch.confirmExpect + 1
		ch.confirmExpect = tag
		for t := range ch.confirmAhead {
			if t <= tag {
				if skip == nil {
					skip = map[uint64]struct{}{}
				}
				skip[t] = struct{}{}
				delete(ch.confirmAhead, t)
			}
		}
	case tag == ch.confirmExpect+1:
		from = tag
		ch.confirmExpect = tag
	default:
		if ch.confirmAhead == nil {
			ch.confirmAhead = map[uint64]struct{}{}
		}
		ch.confirmAhead[tag] = struct{}{}
		return tag, nil
	}
	// The frontier moved: absorb the single verdicts now adjacent to it.
	for len(ch.confirmAhead) > 0 {
		if _, ok := ch.confirmAhead[ch.confirmExpect+1]; !ok {
			break
		}
		ch.confirmExpect++
		delete(ch.confirmAhead, ch.confirmExpect)
	}
	return from, skip
}

// onHeader starts the assembly of one content body. BodySize is a 64-bit
// field off the wire and sizes the body buffer, so a value past
// wire.MaxBodyBytes (a corrupted or hostile header) fails the connection
// here instead of panicking in makeslice.
func (ch *Channel) onHeader(h *wire.ContentHeader) *Error {
	if h.BodySize > wire.MaxBodyBytes {
		return &Error{Code: wire.ReplyFrameError,
			Reason: fmt.Sprintf("content header declares %d body bytes, limit %d", h.BodySize, wire.MaxBodyBytes)}
	}
	ch.mu.Lock()
	ch.pendHeader = h
	if ch.pendLoan != nil {
		// A previous assembly was cut off before completing; recycle it.
		wire.ReleaseBuf(ch.pendLoan)
		ch.pendLoan = nil
	}
	// Manual-ack consumer deliveries assemble into a pooled buffer
	// presized from BodySize; the ack is the release point. Everything
	// else (autoAck, gets, returns) gets a plain heap body whose
	// ownership passes to the receiver.
	if ch.pendKind == pendDeliverKind && ch.pendDeliver != nil {
		if cc := ch.consumers[ch.pendDeliver.ConsumerTag]; cc != nil && !cc.noAck {
			ch.pendLoan = wire.LoanBuf(int(h.BodySize))
		}
	}
	if ch.pendLoan != nil {
		ch.pendBody = (*ch.pendLoan)[:0]
	} else {
		ch.pendBody = make([]byte, 0, h.BodySize)
	}
	complete := h.BodySize == 0
	ch.mu.Unlock()
	if complete {
		ch.completeContent()
	}
	return nil
}

// onBody appends one body frame to the body under assembly. A frame that
// carries more than the header left to come would grow the body off its
// loan and hand the application a message longer than its header says;
// it fails the connection (whose shutdown recycles the half-built loan).
func (ch *Channel) onBody(b []byte) *Error {
	ch.mu.Lock()
	if ch.pendHeader == nil {
		ch.mu.Unlock()
		return nil
	}
	if left := ch.pendHeader.BodySize - uint64(len(ch.pendBody)); uint64(len(b)) > left {
		ch.mu.Unlock()
		return &Error{Code: wire.ReplyFrameError,
			Reason: fmt.Sprintf("body frame of %d bytes overruns declared body size (%d left)", len(b), left)}
	}
	ch.pendBody = append(ch.pendBody, b...)
	complete := uint64(len(ch.pendBody)) >= ch.pendHeader.BodySize
	ch.mu.Unlock()
	if complete {
		ch.completeContent()
	}
	return nil
}

func (ch *Channel) completeContent() {
	ch.mu.Lock()
	kind := ch.pendKind
	header := ch.pendHeader
	body := ch.pendBody
	loan := ch.pendLoan
	deliver := ch.pendDeliver
	getOk := ch.pendGetOk
	ret := ch.pendReturn
	ch.pendKind = pendNone
	ch.pendHeader = nil
	ch.pendBody = nil
	ch.pendLoan = nil
	ch.pendDeliver = nil
	ch.pendGetOk = nil
	ch.pendReturn = nil
	ch.mu.Unlock()
	if header == nil {
		wire.ReleaseBuf(loan)
		return
	}

	switch kind {
	case pendDeliverKind:
		d := deliveryFromProps(&header.Properties)
		d.Acknowledger = ch.currentAcker()
		d.ConsumerTag = deliver.ConsumerTag
		d.DeliveryTag = deliver.DeliveryTag
		d.Redelivered = deliver.Redelivered
		d.Exchange = deliver.Exchange
		d.RoutingKey = deliver.RoutingKey
		d.Body = body
		ch.mu.Lock()
		var dc chan Delivery
		var fn func(Delivery)
		if cc := ch.consumers[deliver.ConsumerTag]; cc != nil {
			dc, fn = cc.deliveries, cc.fn
		}
		if loan != nil {
			if (dc != nil || fn != nil) && !ch.closed {
				// The resolution of this tag releases the body buffer.
				ch.loans[deliver.DeliveryTag] = loan
			} else {
				// Undeliverable: nobody will ever see the body; recycle.
				wire.ReleaseBuf(loan)
				loan = nil
			}
		}
		ch.mu.Unlock()
		switch {
		case fn != nil:
			// Callback consumers run on the connection read loop: no
			// goroutine per idle consumer, and a slow handler throttles
			// the socket exactly like a full delivery channel would. The
			// handler must not issue synchronous calls on this connection
			// (the reply could never be read); async publishes and acks
			// are safe.
			fn(d)
		case dc != nil:
			// Blocking here applies natural backpressure to the socket,
			// like a TCP receive window filling up.
			func() {
				defer func() { recover() }() // tolerate a channel closed mid-send
				dc <- d
			}()
		}
	case pendGetOkKind:
		d := deliveryFromProps(&header.Properties)
		d.Acknowledger = ch.currentAcker()
		d.DeliveryTag = getOk.DeliveryTag
		d.Redelivered = getOk.Redelivered
		d.Exchange = getOk.Exchange
		d.RoutingKey = getOk.RoutingKey
		d.MessageCount = getOk.MessageCount
		d.Body = body
		select {
		case ch.gets <- getResult{d: &d}:
		default:
		}
	case pendReturnKind:
		ch.mu.Lock()
		listeners := append([]chan Return(nil), ch.returns...)
		ch.mu.Unlock()
		for _, l := range listeners {
			l <- Return{
				ReplyCode:  ret.ReplyCode,
				ReplyText:  ret.ReplyText,
				Exchange:   ret.Exchange,
				RoutingKey: ret.RoutingKey,
				Body:       body,
			}
		}
	}
}

// --- declarations ---

// QueueDeclare declares a queue.
func (ch *Channel) QueueDeclare(name string, durable, autoDelete, exclusive, noWait bool, args Table) (Queue, error) {
	m := &wire.QueueDeclare{
		Queue: name, Durable: durable, AutoDelete: autoDelete,
		Exclusive: exclusive, NoWait: noWait, Arguments: args,
	}
	if noWait {
		ch.callMu.Lock()
		err := ch.conn.writeMethod(ch.id, m)
		ch.callMu.Unlock()
		return Queue{Name: name}, err
	}
	resp, err := ch.call(m)
	if err != nil {
		return Queue{}, err
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

// Qos sets the prefetch window applied to subsequent consumers.
func (ch *Channel) Qos(prefetchCount, prefetchSize int, global bool) error {
	m := &wire.BasicQos{
		PrefetchSize: uint32(prefetchSize), PrefetchCount: uint16(prefetchCount), Global: global,
	}
	_, err := ch.call(m)
	if err == nil && ch.conn.reconnectEnabled() {
		spec := *m
		ch.mu.Lock()
		ch.qosSpec = &spec
		ch.mu.Unlock()
	}
	return err
}

// Confirm puts the channel into publisher-confirm mode.
func (ch *Channel) Confirm(noWait bool) error {
	if noWait {
		ch.mu.Lock()
		ch.confirmMode = true
		if ch.conn.reconnectEnabled() && ch.pending == nil {
			ch.pending = map[uint64]*pendingPublish{}
			ch.pubMap = map[uint64]uint64{}
		}
		ch.mu.Unlock()
		ch.callMu.Lock()
		defer ch.callMu.Unlock()
		return ch.conn.writeMethod(ch.id, &wire.ConfirmSelect{NoWait: true})
	}
	_, err := ch.call(&wire.ConfirmSelect{})
	if err == nil {
		ch.mu.Lock()
		ch.confirmMode = true
		if ch.conn.reconnectEnabled() && ch.pending == nil {
			ch.pending = map[uint64]*pendingPublish{}
			ch.pubMap = map[uint64]uint64{}
		}
		ch.mu.Unlock()
	}
	return err
}

// NotifyPublish registers a confirm listener. The channel must be in
// confirm mode. Listeners must be drained promptly.
func (ch *Channel) NotifyPublish(c chan Confirmation) chan Confirmation {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		close(c)
		return c
	}
	ch.confirms = append(ch.confirms, c)
	return c
}

// NotifyReturn registers a listener for unroutable mandatory messages.
func (ch *Channel) NotifyReturn(c chan Return) chan Return {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		close(c)
		return c
	}
	ch.returns = append(ch.returns, c)
	return c
}

// GetNextPublishSeqNo returns the sequence number the next Publish will use
// in confirm mode.
func (ch *Channel) GetNextPublishSeqNo() uint64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.publishSeq + 1
}

// --- publish / consume ---

// Publish sends a message to an exchange. A nil error means the
// connection accepted it: a body of 2 KiB or more is written, a smaller
// one is written or queued, behind at most 64 KiB, for a flush already
// scheduled, which any other write on the connection (an RPC, an ack,
// Close) carries out first. A socket that died meanwhile surfaces on the
// next inline write, NotifyClose, ErrClosed or the closed confirm channel,
// like bytes the kernel had accepted. A confirm remains the only delivery
// guarantee, and a process must Close before exiting.
//
// On a reconnecting connection in confirm mode the publish is tracked
// until the broker resolves it: if the transport dies first, the message
// is queued and replayed by the reconnect, so Publish reports success and
// the confirm (or the closed confirm channel, if the reconnect budget runs
// out) carries the final verdict — the same contract as a confirm-mode
// publish that made it onto the wire.
func (ch *Channel) Publish(exchange, key string, mandatory, immediate bool, msg Publishing) error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return ErrClosed
	}
	track := false
	var seq uint64
	if ch.confirmMode {
		ch.publishSeq++
		if ch.pending != nil {
			track = true
			seq = ch.publishSeq
			ch.pending[seq] = &pendingPublish{
				exchange: exchange, key: key,
				mandatory: mandatory, immediate: immediate, msg: msg,
			}
		}
	}
	ch.mu.Unlock()
	props := msg.properties()
	m := &wire.BasicPublish{
		Exchange: exchange, RoutingKey: key, Mandatory: mandatory, Immediate: immediate,
	}
	if track {
		// The broker confirm tag is assigned inside the write lock
		// (writeContentTracked), so tag order always matches wire order
		// even with concurrent publishers on this channel; a publish that
		// cannot reach the live transport stays in pending for the
		// reconnect replay, and the confirm (or the closed confirm
		// channel, if the reconnect budget runs out) carries the final
		// verdict.
		return ch.conn.writeContentTracked(ch, seq, m, &props, msg.Body)
	}
	return ch.conn.writeContent(ch.id, m, &props, msg.Body)
}

// Consume starts a consumer and returns its delivery channel.
func (ch *Channel) Consume(queue, consumerTag string, autoAck, exclusive, noLocal, noWait bool, args Table) (<-chan Delivery, error) {
	cc := &clientConsumer{deliveries: make(chan Delivery, 16), noAck: autoAck}
	if _, err := ch.consume(queue, consumerTag, cc, exclusive, noLocal, args); err != nil {
		return nil, err
	}
	return cc.deliveries, nil
}

// ConsumeFunc starts a callback consumer: fn runs for every delivery,
// invoked directly from the connection's read loop, so an idle consumer
// costs a map entry instead of a goroutine parked on a channel. This is
// what lets one multiplexed connection carry thousands of logical
// consumers (see ClientPool). It returns the (possibly generated)
// consumer tag for Cancel.
//
// Because fn runs on the read loop, it must not make synchronous calls
// (declares, Qos, Consume, Get, Close) on any channel of the same
// connection — the response could never be read. Asynchronous operations
// (Publish, Ack/Nack/Reject) are safe, as is anything on a different
// connection. A slow fn exerts backpressure on the whole shared
// connection, exactly like an undrained Consume channel. On reconnecting
// connections the subscription is replayed like any other consumer; fn
// is retained across transport epochs.
func (ch *Channel) ConsumeFunc(queue, consumerTag string, autoAck, exclusive, noLocal bool, args Table, fn func(Delivery)) (string, error) {
	if fn == nil {
		return "", errors.New("amqp: ConsumeFunc requires a handler")
	}
	return ch.consume(queue, consumerTag, &clientConsumer{fn: fn, noAck: autoAck}, exclusive, noLocal, args)
}

// consume registers cc under consumerTag (generating one if empty) and
// issues basic.consume, recording the replay spec on reconnecting
// connections. It is the shared body of Consume and ConsumeFunc.
func (ch *Channel) consume(queue, consumerTag string, cc *clientConsumer, exclusive, noLocal bool, args Table) (string, error) {
	ch.mu.Lock()
	if consumerTag == "" {
		ch.consumerSeq++
		consumerTag = fmt.Sprintf("ctag-%d-%d", ch.id, ch.consumerSeq)
	}
	if _, dup := ch.consumers[consumerTag]; dup {
		ch.mu.Unlock()
		return "", fmt.Errorf("amqp: duplicate consumer tag %q", consumerTag)
	}
	ch.consumers[consumerTag] = cc
	ch.mu.Unlock()

	m := &wire.BasicConsume{
		Queue: queue, ConsumerTag: consumerTag,
		NoAck: cc.noAck, Exclusive: exclusive, NoLocal: noLocal, Arguments: args,
	}
	_, epoch, err := ch.callE(m)
	if err != nil {
		ch.mu.Lock()
		delete(ch.consumers, consumerTag)
		ch.mu.Unlock()
		return "", err
	}
	if ch.conn.reconnectEnabled() {
		spec := *m
		ch.mu.Lock()
		ch.consumeSpecs[consumerTag] = &spec
		ch.consumeEpochs[consumerTag] = epoch
		ch.mu.Unlock()
	}
	return consumerTag, nil
}

// Cancel stops a consumer and closes its delivery channel (if any).
func (ch *Channel) Cancel(consumerTag string, noWait bool) error {
	_, err := ch.call(&wire.BasicCancel{ConsumerTag: consumerTag})
	ch.mu.Lock()
	cc, ok := ch.consumers[consumerTag]
	delete(ch.consumers, consumerTag)
	delete(ch.consumeSpecs, consumerTag)
	delete(ch.consumeEpochs, consumerTag)
	ch.mu.Unlock()
	if ok && cc.deliveries != nil {
		close(cc.deliveries)
	}
	return err
}

// Get synchronously fetches one message; ok is false if the queue is
// empty. Like call, a Get interrupted by a transport loss on a
// reconnecting connection waits out the resume and re-issues itself.
func (ch *Channel) Get(queue string, autoAck bool) (Delivery, bool, error) {
	for {
		d, ok, err := ch.getOnce(queue, autoAck)
		if err == nil || !ch.conn.reconnectEnabled() || !errors.Is(err, errSuspended) {
			return d, ok, err
		}
		if !ch.conn.awaitResume() {
			return Delivery{}, false, ErrClosed
		}
	}
}

func (ch *Channel) getOnce(queue string, autoAck bool) (Delivery, bool, error) {
	ch.callMu.Lock()
	defer ch.callMu.Unlock()
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return Delivery{}, false, ErrClosed
	}
	ch.mu.Unlock()
	// Drain any stale result.
	select {
	case <-ch.gets:
	default:
	}
	gen, suspended, _ := ch.conn.genState()
	if suspended {
		return Delivery{}, false, errSuspended
	}
	if err := ch.conn.writeMethodGen(gen, ch.id, &wire.BasicGet{Queue: queue, NoAck: autoAck}); err != nil {
		if err == errSuspended {
			time.Sleep(time.Millisecond)
		}
		return Delivery{}, false, err
	}
	select {
	case res := <-ch.gets:
		if res.empty {
			return Delivery{}, false, nil
		}
		return *res.d, true, nil
	case <-gen:
		select {
		case res := <-ch.gets:
			if res.empty {
				return Delivery{}, false, nil
			}
			return *res.d, true, nil
		default:
			return Delivery{}, false, errSuspended
		}
	case <-ch.conn.done:
		return Delivery{}, false, ErrClosed
	}
}

// --- Acknowledger ---

// epochCurrent passed as the epoch to releaseLoans means "whatever epoch
// the loan registry currently belongs to" — used by the Channel's own
// Acknowledger methods, which always act on the live transport.
const epochCurrent = ^uint64(0)

// releaseLoans returns the pooled bodies of resolved deliveries to the
// wire pool: the application promised (by acking/nacking/rejecting) that
// it is done with them. Loans from an older transport epoch are left
// alone — their tags belong to a dead transport and were already
// abandoned by the resume.
func (ch *Channel) releaseLoans(epoch, tag uint64, multiple bool) {
	ch.mu.Lock()
	if epoch != epochCurrent && epoch != ch.loansEpoch {
		ch.mu.Unlock()
		return
	}
	if !multiple {
		p := ch.loans[tag]
		delete(ch.loans, tag)
		ch.mu.Unlock()
		wire.ReleaseBuf(p)
		return
	}
	var rel []*[]byte
	for t, p := range ch.loans {
		if t <= tag || tag == 0 {
			rel = append(rel, p)
			delete(ch.loans, t)
		}
	}
	ch.mu.Unlock()
	for _, p := range rel {
		wire.ReleaseBuf(p)
	}
}

// Ack acknowledges a delivery tag.
func (ch *Channel) Ack(tag uint64, multiple bool) error {
	ch.releaseLoans(epochCurrent, tag, multiple)
	return ch.conn.writeMethod(ch.id, &wire.BasicAck{DeliveryTag: tag, Multiple: multiple})
}

// Nack negatively acknowledges a delivery tag.
func (ch *Channel) Nack(tag uint64, multiple, requeue bool) error {
	ch.releaseLoans(epochCurrent, tag, multiple)
	return ch.conn.writeMethod(ch.id, &wire.BasicNack{DeliveryTag: tag, Multiple: multiple, Requeue: requeue})
}

// Reject rejects a delivery tag.
func (ch *Channel) Reject(tag uint64, requeue bool) error {
	ch.releaseLoans(epochCurrent, tag, false)
	return ch.conn.writeMethod(ch.id, &wire.BasicReject{DeliveryTag: tag, Requeue: requeue})
}

// --- reconnect replay ---

// currentAcker returns the acknowledger deliveries should carry: the
// channel itself on legacy connections, or the transport-epoch-scoped
// acker on reconnecting connections (so acknowledgements for deliveries
// of a dead transport are dropped instead of misapplied to tags the new
// transport reassigned).
func (ch *Channel) currentAcker() Acknowledger {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.acker != nil {
		return ch.acker
	}
	return ch
}

// epochAcker resolves deliveries only while the transport epoch they
// were delivered on is still current. After a reconnect the broker has
// requeued those deliveries, so stale acknowledgements become no-ops.
type epochAcker struct {
	ch    *Channel
	epoch uint64
}

func (a *epochAcker) Ack(tag uint64, multiple bool) error {
	a.ch.releaseLoans(a.epoch, tag, multiple)
	return a.ch.conn.writeMethodEpoch(a.epoch, a.ch.id, &wire.BasicAck{DeliveryTag: tag, Multiple: multiple})
}

func (a *epochAcker) Nack(tag uint64, multiple, requeue bool) error {
	a.ch.releaseLoans(a.epoch, tag, multiple)
	return a.ch.conn.writeMethodEpoch(a.epoch, a.ch.id, &wire.BasicNack{DeliveryTag: tag, Multiple: multiple, Requeue: requeue})
}

func (a *epochAcker) Reject(tag uint64, requeue bool) error {
	a.ch.releaseLoans(a.epoch, tag, false)
	return a.ch.conn.writeMethodEpoch(a.epoch, a.ch.id, &wire.BasicReject{DeliveryTag: tag, Requeue: requeue})
}

// replayState re-establishes this channel on a fresh transport during
// resume: channel.open, QoS, confirm mode, and every pending
// confirm-mode publish, republished in client sequence order so the new
// transport's broker confirm tags (1..n) map back onto the original
// sequence numbers. The caller holds the connection's writeMu and owns
// the frame reader; consumers are replayed separately once the read
// loop is live (replayConsumers).
func (ch *Channel) replayState(fr *wire.FrameReader) error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil
	}
	// Drop any content assembly that was cut off mid-message (its loan
	// was never handed out, so it can recycle), and abandon the dead
	// transport's delivery-body loans: the broker requeued those
	// deliveries, but the application may still hold the bodies.
	ch.pendKind = pendNone
	ch.pendHeader = nil
	ch.pendBody = nil
	wire.ReleaseBuf(ch.pendLoan)
	ch.pendLoan = nil
	ch.pendDeliver = nil
	ch.pendGetOk = nil
	ch.pendReturn = nil
	for t, p := range ch.loans {
		delete(ch.loans, t)
		wire.AbandonBuf(p)
	}
	epoch := ch.conn.currentEpoch()
	ch.acker = &epochAcker{ch: ch, epoch: epoch}
	qos := ch.qosSpec
	confirm := ch.confirmMode
	// Rebuild the confirm-tag mapping: the broker numbers publishes per
	// transport, and the replay below re-publishes every pending message
	// in ascending sequence order. Marking the map current for the new
	// epoch reopens direct publishing (writes queue on writeMu until the
	// resume releases it).
	ch.mapEpoch = epoch
	ch.loansEpoch = epoch
	ch.replayedThrough = ch.publishSeq
	ch.confirmExpect = 0
	ch.confirmAhead = nil
	ch.brokerSeq = 0
	var pend []*pendingPublish
	if ch.pending != nil {
		seqs := make([]uint64, 0, len(ch.pending))
		for s := range ch.pending {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		ch.pubMap = make(map[uint64]uint64, len(seqs))
		pend = make([]*pendingPublish, 0, len(seqs))
		for _, s := range seqs {
			ch.brokerSeq++
			ch.pubMap[ch.brokerSeq] = s
			pend = append(pend, ch.pending[s])
		}
	}
	ch.mu.Unlock()

	if _, err := ch.conn.replayCall(fr, ch.id, &wire.ChannelOpen{}); err != nil {
		return err
	}
	if qos != nil {
		spec := *qos
		if _, err := ch.conn.replayCall(fr, ch.id, &spec); err != nil {
			return err
		}
	}
	if confirm {
		if _, err := ch.conn.replayCall(fr, ch.id, &wire.ConfirmSelect{}); err != nil {
			return err
		}
	}
	for _, p := range pend {
		props := p.msg.properties()
		err := ch.conn.writeContentRaw(ch.id, &wire.BasicPublish{
			Exchange: p.exchange, RoutingKey: p.key,
			Mandatory: p.mandatory, Immediate: p.immediate,
		}, &props, p.msg.Body)
		if err != nil {
			return err
		}
		replayedPublishes.Inc()
	}
	return nil
}

// replayConsumers re-issues basic.consume, through the normal
// synchronous path (the read loop routes the -ok and the redeliveries
// that follow), for every registered consumer whose subscription has not
// already landed on the target transport epoch or later. It uses the
// single-attempt call and aborts quietly on a further fault: the
// reconnect that follows kicks another replay pass, and the landing
// epoch records keep any overlap from double-subscribing a tag on one
// transport (which the broker rejects).
func (ch *Channel) replayConsumers(target uint64) {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	tags := make([]string, 0, len(ch.consumeSpecs))
	for tag := range ch.consumeSpecs {
		if ch.consumeEpochs[tag] < target {
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	specs := make([]*wire.BasicConsume, 0, len(tags))
	for _, tag := range tags {
		spec := *ch.consumeSpecs[tag]
		specs = append(specs, &spec)
	}
	ch.mu.Unlock()
	for _, spec := range specs {
		_, epoch, err := ch.callOnce(spec)
		if err != nil {
			return
		}
		ch.mu.Lock()
		if _, still := ch.consumeSpecs[spec.ConsumerTag]; still && epoch > ch.consumeEpochs[spec.ConsumerTag] {
			ch.consumeEpochs[spec.ConsumerTag] = epoch
		}
		ch.mu.Unlock()
	}
}
