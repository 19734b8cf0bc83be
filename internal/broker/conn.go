package broker

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ds2hpc/internal/netem"
	"ds2hpc/internal/wire"
)

// srvConn is the server side of one client connection: it owns the frame
// reader loop, the send buffer, and the channel map.
type srvConn struct {
	srv *Server
	c   net.Conn
	fr  *wire.FrameReader
	dec wire.Decoder // serve goroutine only; hot frames land in their channel's slots

	// Every frame goes through out, the one ordered send buffer, so wire
	// order is append order. A channel's frames are appended under its
	// ch.mu, in the hold of the state change they report (a take, a
	// cancel, a teardown, a verdict). flush swaps out and writes it under
	// writeMu, which guards only the socket.
	//
	// Lock order: a channel's mu, then a queue's mu, then dispMu; outMu is
	// a leaf, and no goroutine holding any of them takes writeMu.
	writeMu   sync.Mutex
	outMu     sync.Mutex
	out       *wire.Writer // nil while empty: a pooled writer from the first append to the next flush
	outFrames int
	deliver   wire.BasicDeliver // outMu scratch: a delivery batch encodes from it, so the method never escapes
	ack       wire.BasicAck     // outMu scratch for confirm frames, likewise
	nack      wire.BasicNack

	// ackDirty lists the channels the serve goroutine recorded verdicts on
	// since its last appendConfirms, which appends them before the next
	// kernel read (see preRead): a burst of pipelined publishes is
	// answered by one write, and nothing waits across a blocking read.
	// Serve-goroutine state: no lock.
	ackDirty []*srvChannel

	vh *VHost

	chMu     sync.Mutex
	channels map[uint16]*srvChannel

	// Event-driven delivery dispatch: the queues put consumers whose rings
	// hold deliveries on dispReady, and one deliveryLoop goroutine —
	// started lazily on the first consume, shared by every consumer on
	// this connection — serves them round-robin.
	dispOnce  sync.Once
	dispMu    sync.Mutex
	dispReady []*consumer
	dispWake  chan struct{}
	dispDone  chan struct{} // closed once no delivery loop runs or can start
	// dispOffs is delivery-loop scratch: the durable offsets a noAck batch
	// commits. A field, not a local array: the offsets reach the queue's
	// commit hook, a func value, which would move a local to the heap on
	// every batch.
	dispOffs [maxDeliveryBatch]uint64

	frameMax  uint32
	heartbeat time.Duration

	closeOnce sync.Once
	done      chan struct{}
}

// preReadConn runs hook before every Read that reaches the socket. It
// sits directly above the socket — under tls.Server on TLS listeners,
// where a hook above crypto/tls would fire once per buffered record
// instead of once per kernel read.
type preReadConn struct {
	net.Conn
	hook func()
}

func (c *preReadConn) Read(p []byte) (int, error) {
	c.hook()
	return c.Conn.Read(p)
}

// newSrvConn stacks the connection's layers over an accepted socket. Only
// the read side goes through the pre-read hook on plain listeners: writes
// keep the raw *net.TCPConn, which is what lets FlushFrames use writev.
func newSrvConn(s *Server, raw net.Conn) *srvConn {
	sc := &srvConn{
		srv:      s,
		channels: map[uint16]*srvChannel{},
		frameMax: s.cfg.FrameMax,
		dispWake: make(chan struct{}, 1),
		dispDone: make(chan struct{}),
		done:     make(chan struct{}),
	}
	rd := &preReadConn{Conn: raw, hook: sc.preRead}
	var r io.Reader = rd
	sc.c = raw
	if s.cfg.TLS != nil {
		t := tls.Server(rd, s.cfg.TLS)
		r, sc.c = t, t
	}
	sc.c = netem.Wrap(sc.c, s.cfg.Link)
	sc.fr = wire.NewFrameReader(r, s.cfg.FrameMax+1024)
	return sc
}

// preRead runs before every kernel read of the serve goroutine: it
// appends the verdicts decided since the last read and writes whatever
// the buffer holds. With nothing pending it takes no writeMu, so reading
// never waits on another goroutine's write.
func (sc *srvConn) preRead() {
	sc.appendConfirms()
	sc.outMu.Lock()
	pending := sc.out != nil
	sc.outMu.Unlock()
	if pending {
		sc.flush()
	}
}

// appendConfirms appends the verdicts of every channel on ackDirty.
// Serve goroutine only.
func (sc *srvConn) appendConfirms() {
	for i, ch := range sc.ackDirty {
		ch.mu.Lock()
		sc.appendVerdictsLocked(ch)
		ch.mu.Unlock()
		ch.listed = false
		sc.ackDirty[i] = nil
	}
	sc.ackDirty = sc.ackDirty[:0]
}

// appendVerdictsLocked appends the frames ch's inbound core emits. The
// caller holds ch.mu, so whichever goroutine drains the core, a channel's
// confirms reach the buffer in the order the core emitted them.
func (sc *srvConn) appendVerdictsLocked(ch *srvChannel) {
	frames := ch.in.flush()
	if len(frames) == 0 {
		return
	}
	sc.outMu.Lock()
	w := sc.bufLocked()
	for _, f := range frames {
		if f.nack {
			sc.nack.DeliveryTag, sc.nack.Multiple = f.tag, f.multiple
			w.AppendMethodFrame(ch.id, &sc.nack)
		} else {
			sc.ack.DeliveryTag, sc.ack.Multiple = f.tag, f.multiple
			w.AppendMethodFrame(ch.id, &sc.ack)
		}
	}
	sc.outFrames += len(frames)
	sc.outMu.Unlock()
}

// bufLocked returns the send buffer, taking a pooled writer for the
// first frame since the last flush. The caller holds outMu.
func (sc *srvConn) bufLocked() *wire.Writer {
	if sc.out == nil {
		sc.out = wire.GetWriter()
	}
	return sc.out
}

// appendMethod appends one method frame. It encodes m apart first, so a
// method that does not encode (an over-long string) leaves the buffer as
// it was.
func (sc *srvConn) appendMethod(channel uint16, m wire.Method) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.AppendMethodFrame(channel, m)
	if err := w.Err(); err != nil {
		return err
	}
	sc.outMu.Lock()
	sc.bufLocked().AppendWriter(w)
	sc.outFrames++
	sc.outMu.Unlock()
	return nil
}

// flush writes everything appended so far in one write. It swaps the
// buffer out under writeMu, so when it returns every frame appended
// before the call is on the wire (or lost with the connection) and a
// caller may drop what its frames borrowed. A write error is dropped:
// the connection is going away.
func (sc *srvConn) flush() {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	sc.outMu.Lock()
	w, frames := sc.out, sc.outFrames
	sc.out, sc.outFrames = nil, 0
	sc.outMu.Unlock()
	if w != nil {
		_ = w.FlushFrames(sc.c, frames)
		wire.PutWriter(w)
	}
}

// schedule puts a consumer on this connection's delivery loop. The queue
// calls it under q.mu, and only for a consumer not queued already
// (consumer.queued), so a consumer is on the ready list at most once.
func (sc *srvConn) schedule(c *consumer) {
	sc.dispMu.Lock()
	sc.dispReady = append(sc.dispReady, c)
	sc.dispMu.Unlock()
	select {
	case sc.dispWake <- struct{}{}:
	default:
	}
	sc.dispOnce.Do(func() { go sc.deliveryLoop() })
}

// deliveryLoop is the connection's single delivery pump: it serves
// whichever consumers are queued, one bounded batch each, instead of
// parking one writer goroutine per consumer. 10⁵ idle consumers on a
// connection cost zero goroutines; the loop exits with the connection
// (channel teardown returns what it leaves behind).
func (sc *srvConn) deliveryLoop() {
	defer close(sc.dispDone)
	var batch []*consumer
	for {
		sc.dispMu.Lock()
		batch, sc.dispReady = sc.dispReady, batch[:0]
		sc.dispMu.Unlock()
		if len(batch) == 0 {
			select {
			case <-sc.dispWake:
				continue
			case <-sc.done:
				return
			}
		}
		for _, c := range batch {
			c.ch.serveConsumer(c)
		}
	}
}

// shutdown tears the connection down and requeues unsettled deliveries.
func (sc *srvConn) shutdown() {
	sc.closeOnce.Do(func() {
		close(sc.done)
		sc.c.Close()
		sc.chMu.Lock()
		chans := make([]*srvChannel, 0, len(sc.channels))
		for _, ch := range sc.channels {
			chans = append(chans, ch)
		}
		sc.channels = map[uint16]*srvChannel{}
		sc.chMu.Unlock()
		for _, ch := range chans {
			ch.teardown()
		}
		// Wait out the delivery loop, which may still hold the references
		// of a batch it is writing: once shutdown returns, every delivery
		// is settled, requeued or released. A loop not started by now
		// never starts.
		sc.dispOnce.Do(func() { close(sc.dispDone) })
		<-sc.dispDone
	})
}

func (sc *srvConn) serve() {
	defer sc.shutdown()
	if err := sc.handshake(); err != nil {
		sc.srv.logf("broker: handshake with %s failed: %v", sc.c.RemoteAddr(), err)
		return
	}
	for {
		if sc.heartbeat > 0 {
			sc.c.SetReadDeadline(time.Now().Add(2 * sc.heartbeat))
		}
		f, err := sc.fr.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				sc.srv.logf("broker: read from %s: %v", sc.c.RemoteAddr(), err)
			}
			return
		}
		if err := sc.dispatch(f); err != nil {
			if !errors.Is(err, errConnClosed) {
				// A framing error ends the connection, but the publishes
				// before it were routed: their verdicts go out, then the
				// connection.close that says why (unless its text is too
				// long to encode).
				sc.appendConfirms()
				sc.appendMethod(0, &wire.ConnectionClose{ReplyCode: wire.ReplyFrameError, ReplyText: err.Error()})
				sc.srv.logf("broker: dispatch: %v", err)
			}
			sc.flush()
			return
		}
	}
}

var errConnClosed = errors.New("broker: connection closed by client")

func (sc *srvConn) handshake() error {
	if err := wire.ReadProtocolHeader(sc.c); err != nil {
		return err
	}
	start := &wire.ConnectionStart{
		VersionMajor: 0, VersionMinor: 9,
		ServerProperties: wire.Table{
			"product": "ds2hpc-broker",
			"version": "1.0",
			"capabilities": wire.Table{
				"publisher_confirms": true,
				"basic.nack":         true,
			},
		},
		Mechanisms: "PLAIN",
		Locales:    "en_US",
	}
	if err := sc.appendMethod(0, start); err != nil {
		return err
	}
	if _, err := sc.expectMethod(0); err != nil { // start-ok
		return err
	}
	hb := uint16(sc.srv.cfg.Heartbeat / time.Second)
	tune := &wire.ConnectionTune{ChannelMax: 2047, FrameMax: sc.frameMax, Heartbeat: hb}
	if err := sc.appendMethod(0, tune); err != nil {
		return err
	}
	m, err := sc.expectMethod(0)
	if err != nil {
		return err
	}
	tok, ok := m.(*wire.ConnectionTuneOk)
	if !ok {
		return fmt.Errorf("broker: expected tune-ok, got %T", m)
	}
	if tok.FrameMax > 0 && tok.FrameMax < sc.frameMax {
		sc.frameMax = tok.FrameMax
	}
	sc.fr.SetFrameMax(sc.frameMax + 1024)
	if tok.Heartbeat > 0 && hb > 0 {
		sc.heartbeat = time.Duration(tok.Heartbeat) * time.Second
		go sc.heartbeatLoop()
	}
	m, err = sc.expectMethod(0)
	if err != nil {
		return err
	}
	open, ok := m.(*wire.ConnectionOpen)
	if !ok {
		return fmt.Errorf("broker: expected connection.open, got %T", m)
	}
	sc.vh = sc.srv.VHost(open.VirtualHost)
	return sc.appendMethod(0, &wire.ConnectionOpenOk{})
}

// expectMethod reads one method frame on the given channel.
func (sc *srvConn) expectMethod(channel uint16) (wire.Method, error) {
	f, err := sc.fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.FrameMethod || f.Channel != channel {
		return nil, fmt.Errorf("broker: unexpected frame type=%d channel=%d", f.Type, f.Channel)
	}
	return wire.ParseMethod(f.Payload)
}

func (sc *srvConn) heartbeatLoop() {
	t := time.NewTicker(sc.heartbeat / 2)
	defer t.Stop()
	for {
		select {
		case <-sc.done:
			return
		case <-t.C:
			sc.outMu.Lock()
			sc.bufLocked().AppendRawFrame(wire.FrameHeartbeat, 0, nil)
			sc.outFrames++
			sc.outMu.Unlock()
			sc.flush()
		}
	}
}

func (sc *srvConn) dispatch(f wire.Frame) error {
	switch f.Type {
	case wire.FrameHeartbeat:
		return nil
	case wire.FrameMethod:
		// Channel 0, and a channel before its channel.open, have no slots:
		// their methods decode into fresh values.
		ch := sc.channel(f.Channel)
		var slots *wire.Slots
		if ch != nil {
			slots = &ch.slots
		}
		m, err := sc.dec.Method(f.Payload, slots)
		if err != nil {
			return err
		}
		switch m.(type) {
		case *wire.BasicPublish, *wire.BasicAck, *wire.BasicNack, *wire.BasicReject:
			// Answered by nothing, or by a confirm that is itself deferred.
		default:
			// Whatever this method makes the serve goroutine append (an
			// -ok, a channel exception, a close) follows the confirms of
			// the publishes that came before it.
			sc.appendConfirms()
		}
		if f.Channel == 0 {
			return sc.connectionMethod(m)
		}
		return sc.channelMethod(f.Channel, ch, m)
	case wire.FrameHeader:
		ch := sc.channel(f.Channel)
		if ch == nil {
			return fmt.Errorf("broker: header frame on unknown channel %d", f.Channel)
		}
		h, err := sc.dec.Header(f.Payload, &ch.slots)
		if err != nil {
			return err
		}
		return ch.onHeader(h)
	case wire.FrameBody:
		ch := sc.channel(f.Channel)
		if ch == nil {
			return fmt.Errorf("broker: body frame on unknown channel %d", f.Channel)
		}
		return ch.onBody(f.Payload)
	default:
		return fmt.Errorf("broker: unknown frame type %d", f.Type)
	}
}

func (sc *srvConn) connectionMethod(m wire.Method) error {
	switch m.(type) {
	case *wire.ConnectionClose:
		sc.appendMethod(0, &wire.ConnectionCloseOk{})
		return errConnClosed
	case *wire.ConnectionCloseOk:
		return errConnClosed
	default:
		return fmt.Errorf("broker: unexpected connection method %T", m)
	}
}

func (sc *srvConn) channel(id uint16) *srvChannel {
	sc.chMu.Lock()
	defer sc.chMu.Unlock()
	return sc.channels[id]
}

// channelMethod handles method m on channel id; ch is that channel, nil
// when it is not open.
func (sc *srvConn) channelMethod(id uint16, ch *srvChannel, m wire.Method) error {
	if _, ok := m.(*wire.ChannelOpen); ok {
		ch := newSrvChannel(sc, id)
		sc.chMu.Lock()
		sc.channels[id] = ch
		sc.chMu.Unlock()
		return ch.send(&wire.ChannelOpenOk{})
	}
	if ch == nil {
		// A late close-ok for a channel the server already closed.
		if _, ok := m.(*wire.ChannelCloseOk); ok {
			return nil
		}
		return fmt.Errorf("broker: method %T on unknown channel %d", m, id)
	}
	return ch.onMethod(m)
}

// removeChannel drops a channel from the map (after close).
func (sc *srvConn) removeChannel(id uint16) {
	sc.chMu.Lock()
	delete(sc.channels, id)
	sc.chMu.Unlock()
}
