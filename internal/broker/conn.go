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
// reader loop, the shared writer, and the channel map.
type srvConn struct {
	srv *Server
	c   net.Conn
	fr  *wire.FrameReader
	dec wire.Decoder // serve goroutine only; hot frames land in their channel's slots

	// Lock order: writeMu, then a channel's mu, then a queue's mu, then
	// dispMu. writeConfirms and serveConsumer hold writeMu and ch.mu
	// together; every other writer drops ch.mu before it takes writeMu.
	// serveConsumer and basicGet take from a queue under ch.mu, and the
	// pump queues a consumer on dispReady under q.mu.
	writeMu sync.Mutex
	deliver wire.BasicDeliver // writeMu scratch: a delivery batch encodes from it, so the method never escapes
	ack     wire.BasicAck     // writeMu scratch for confirm frames, likewise
	nack    wire.BasicNack

	// ackDirty lists the channels the serve goroutine recorded verdicts on
	// since its last flushConfirms, which writes them before the next
	// kernel read (see preReadConn): a burst of pipelined publishes is
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
	rd := &preReadConn{Conn: raw, hook: sc.flushConfirms}
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

// flushConfirms writes the verdicts of every channel on ackDirty in one
// write, right before the serve goroutine's next kernel read. Serve
// goroutine only.
func (sc *srvConn) flushConfirms() {
	if len(sc.ackDirty) == 0 {
		return
	}
	sc.writeConfirms(sc.ackDirty)
	for i, ch := range sc.ackDirty {
		ch.listed = false
		sc.ackDirty[i] = nil
	}
	sc.ackDirty = sc.ackDirty[:0]
}

// writeConfirms writes the frames the inbound cores of chs emit in one
// write. Drain and write share one writeMu hold, so whichever goroutine
// flushes, a channel's frames reach the wire in the order its core
// emitted them. A write error is dropped: the connection is going away.
func (sc *srvConn) writeConfirms(chs []*srvChannel) {
	w := wire.GetWriter()
	frames := 0
	sc.writeMu.Lock()
	for _, ch := range chs {
		ch.mu.Lock()
		for _, f := range ch.in.flush() {
			if f.nack {
				sc.nack.DeliveryTag, sc.nack.Multiple = f.tag, f.multiple
				w.AppendMethodFrame(ch.id, &sc.nack)
			} else {
				sc.ack.DeliveryTag, sc.ack.Multiple = f.tag, f.multiple
				w.AppendMethodFrame(ch.id, &sc.ack)
			}
			frames++
		}
		ch.mu.Unlock()
	}
	_ = w.FlushFrames(sc.c, frames)
	sc.writeMu.Unlock()
	wire.PutWriter(w)
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
			if errors.Is(err, errConnClosed) {
				return
			}
			// A framing error ends the connection, but the publishes
			// before it were routed: their verdicts still go out.
			sc.flushConfirms()
			sc.srv.logf("broker: dispatch: %v", err)
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
	if err := sc.writeMethod(0, start); err != nil {
		return err
	}
	if _, err := sc.expectMethod(0); err != nil { // start-ok
		return err
	}
	hb := uint16(sc.srv.cfg.Heartbeat / time.Second)
	tune := &wire.ConnectionTune{ChannelMax: 2047, FrameMax: sc.frameMax, Heartbeat: hb}
	if err := sc.writeMethod(0, tune); err != nil {
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
	return sc.writeMethod(0, &wire.ConnectionOpenOk{})
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
			sc.writeFrame(wire.Frame{Type: wire.FrameHeartbeat, Channel: 0})
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
			// Whatever this method makes the serve goroutine write (an
			// -ok, a channel exception, a close) follows the confirms of
			// the publishes that came before it.
			sc.flushConfirms()
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
		sc.writeMethod(0, &wire.ConnectionCloseOk{})
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
		return sc.writeMethod(id, &wire.ChannelOpenOk{})
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

// writeFrame serializes a frame onto the wire with a single write.
func (sc *srvConn) writeFrame(f wire.Frame) error {
	w := wire.GetWriter()
	w.AppendRawFrame(f.Type, f.Channel, f.Payload)
	return sc.write(w, 1)
}

// writeMethod encodes and writes a method frame with a single write.
func (sc *srvConn) writeMethod(channel uint16, m wire.Method) error {
	w := wire.GetWriter()
	w.AppendMethodFrame(channel, m)
	return sc.write(w, 1)
}

// writeContent coalesces the method + header + body frame triplet of one
// message into a single (vectored) write, so frames from concurrent
// deliveries never interleave within a message and each message costs one
// syscall. Large bodies are borrowed, not copied: the caller must hold a
// message reference across this call, which every delivery path does.
func (sc *srvConn) writeContent(channel uint16, m wire.Method, props *wire.Properties, body []byte) error {
	w := wire.GetWriter()
	if err := sc.write(w, w.AppendContentFramesZC(channel, m, props, body, sc.frameMax)); err != nil {
		return err
	}
	sc.srv.Stats.MessagesOut.Add(1)
	sc.srv.Stats.BytesOut.Add(uint64(len(body)))
	return nil
}

// write puts the frames w holds on the wire in one write under writeMu,
// unless encoding them failed, and recycles w.
func (sc *srvConn) write(w *wire.Writer, frames int) error {
	defer wire.PutWriter(w)
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	return w.FlushFrames(sc.c, frames)
}

// deliveryFlushBytes bounds how many coalesced bytes accumulate across
// messages before the batch writer flushes mid-batch. Together with one
// maximum-size message it stays under the pooled-writer retention cap, so
// batches of large bodies keep recycling their writers (a single body far
// beyond frameMax can still overshoot; such writers are dropped for GC).
const deliveryFlushBytes = 256 * 1024

// writeDeliveriesLocked emits one basic.deliver frame triplet per message
// as a single batched vectored write (flushing early if the batch
// outgrows the pooled buffer classes): frame headers coalesce in the
// writer buffer while large bodies are borrowed from the shared messages
// and ride the writev in place — body bytes are never copied between the
// ingest loan and the socket. The caller holds writeMu across the whole
// batch, so it stays atomic with respect to other writers on this
// connection, and a reference on every message until this returns.
func (sc *srvConn) writeDeliveriesLocked(channel uint16, consumerTag string, batch []qitem, tags []uint64) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	frames := 0
	var bytesOut uint64
	deliver := &sc.deliver
	deliver.ConsumerTag = consumerTag
	for i, d := range batch {
		msg := d.msg
		deliver.DeliveryTag = tags[i]
		deliver.Redelivered = d.redelivered
		deliver.Exchange = msg.Exchange
		deliver.RoutingKey = msg.RoutingKey
		frames += w.AppendContentFramesZC(channel, deliver, &msg.Props, msg.Body, sc.frameMax)
		bytesOut += uint64(len(msg.Body))
		if w.Len() >= deliveryFlushBytes {
			if err := w.Err(); err != nil {
				return err
			}
			if err := w.FlushFrames(sc.c, frames); err != nil {
				return err
			}
			frames = 0
		}
	}
	if err := w.Err(); err != nil {
		return err
	}
	if err := w.FlushFrames(sc.c, frames); err != nil {
		return err
	}
	sc.srv.Stats.MessagesOut.Add(uint64(len(batch)))
	sc.srv.Stats.BytesOut.Add(bytesOut)
	return nil
}
