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

	writeMu sync.Mutex
	deliver wire.BasicDeliver // writeMu scratch: a delivery batch encodes from it, so the method never escapes

	// Deferred publisher confirms. completePublish records a positive
	// confirm on its channel and lists the channel here; flushConfirms
	// writes them all right before the serve goroutine's next kernel
	// read (see preReadConn), so a burst of pipelined publishes is
	// answered by one write and nothing stays pending across a blocking
	// read. Serve-goroutine state: no lock.
	ackDirty []*srvChannel
	ack      wire.BasicAck // reused per frame so the method never escapes

	vh *VHost

	chMu     sync.Mutex
	channels map[uint16]*srvChannel

	// Event-driven delivery dispatch: consumers with outbox work enqueue
	// themselves on dispReady (via their wake hook) and one deliveryLoop
	// goroutine — started lazily on the first consume, shared by every
	// consumer on this connection — serves them round-robin.
	dispOnce  sync.Once
	dispMu    sync.Mutex
	dispReady []*consumerEntry
	dispWake  chan struct{}
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

// flushConfirms writes every deferred publisher confirm of the connection
// in one write: per channel a single basic.ack{multiple} when the pending
// run may cover everything before it, otherwise the individual acks.
// multiple=true claims every tag up to the run's last one, so it is only
// sent while no confirm-bridged publish (federated, replicated) of the
// channel is still waiting on ClusterConfirm. A lone confirm goes out as a
// plain ack: at window 1 the wire is what it was before confirms were
// deferred. Serve goroutine only. A write error is dropped — the
// connection is going away and the next read reports it.
func (sc *srvConn) flushConfirms() {
	if len(sc.ackDirty) == 0 {
		return
	}
	w := wire.GetWriter()
	frames := 0
	for i, ch := range sc.ackDirty {
		tags := ch.ackPending
		sc.ack.Multiple = len(tags) > 1 && ch.bridged.Load() == 0
		if sc.ack.Multiple {
			tags = tags[len(tags)-1:]
		}
		for _, t := range tags {
			sc.ack.DeliveryTag = t
			w.AppendMethodFrame(ch.id, &sc.ack)
			frames++
		}
		ch.ackPending = ch.ackPending[:0]
		sc.ackDirty[i] = nil
	}
	sc.ackDirty = sc.ackDirty[:0]
	sc.writeMu.Lock()
	_ = w.FlushFrames(sc.c, frames)
	sc.writeMu.Unlock()
	wire.PutWriter(w)
}

// wakeConsumer schedules a consumer for this connection's delivery loop.
// The scheduled CAS makes duplicate wakes free: a consumer is in the
// ready list at most once, and whoever wins the CAS owns the enqueue.
// Safe to call from under a queue's lock — it only touches dispatch
// state, never queue state.
func (sc *srvConn) wakeConsumer(ce *consumerEntry) {
	if !ce.scheduled.CompareAndSwap(false, true) {
		return
	}
	sc.dispMu.Lock()
	sc.dispReady = append(sc.dispReady, ce)
	sc.dispMu.Unlock()
	select {
	case sc.dispWake <- struct{}{}:
	default:
	}
	sc.dispOnce.Do(func() { go sc.deliveryLoop() })
}

// deliveryLoop is the connection's single delivery pump: it serves
// whichever consumers have scheduled outbox work, one bounded batch
// each, instead of parking one writer goroutine per consumer. 10⁵ idle
// consumers on a connection cost zero goroutines; the loop exits with
// the connection (channel teardown drains what it leaves behind).
func (sc *srvConn) deliveryLoop() {
	var batch []*consumerEntry
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
		for _, ce := range batch {
			ce.ch.serveConsumer(ce)
		}
	}
}

// shutdown tears the connection down and requeues unacked deliveries.
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
	sc.writeMu.Lock()
	err := w.FlushFrames(sc.c, 1)
	sc.writeMu.Unlock()
	wire.PutWriter(w)
	return err
}

// writeMethod encodes and writes a method frame with a single write.
func (sc *srvConn) writeMethod(channel uint16, m wire.Method) error {
	w := wire.GetWriter()
	w.AppendMethodFrame(channel, m)
	if err := w.Err(); err != nil {
		wire.PutWriter(w)
		return err
	}
	sc.writeMu.Lock()
	err := w.FlushFrames(sc.c, 1)
	sc.writeMu.Unlock()
	wire.PutWriter(w)
	return err
}

// writeContent coalesces the method + header + body frame triplet of one
// message into a single (vectored) write, so frames from concurrent
// deliveries never interleave within a message and each message costs one
// syscall. Large bodies are borrowed, not copied: the caller must hold a
// message reference across this call, which every delivery path does.
func (sc *srvConn) writeContent(channel uint16, m wire.Method, props *wire.Properties, body []byte) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	frames := w.AppendContentFramesZC(channel, m, props, body, sc.frameMax)
	if err := w.Err(); err != nil {
		return err
	}
	sc.writeMu.Lock()
	err := w.FlushFrames(sc.c, frames)
	sc.writeMu.Unlock()
	if err != nil {
		return err
	}
	sc.srv.Stats.MessagesOut.Add(1)
	sc.srv.Stats.BytesOut.Add(uint64(len(body)))
	return nil
}

// deliveryFlushBytes bounds how many coalesced bytes accumulate across
// messages before the batch writer flushes mid-batch. Together with one
// maximum-size message it stays under the pooled-writer retention cap, so
// batches of large bodies keep recycling their writers (a single body far
// beyond frameMax can still overshoot; such writers are dropped for GC).
const deliveryFlushBytes = 256 * 1024

// writeDeliveries emits one basic.deliver frame triplet per message as a
// single batched vectored write (flushing early if the batch outgrows the
// pooled buffer classes): frame headers coalesce in the writer buffer
// while large bodies are borrowed from the shared messages and ride the
// writev in place — body bytes are never copied between the ingest loan
// and the socket. All frames are written under one writer-lock hold, so
// the batch stays atomic with respect to other writers on this
// connection; the caller holds a reference on every message until this
// returns.
func (sc *srvConn) writeDeliveries(channel uint16, consumerTag string, msgs []*Message, tags []uint64, redelivered []bool) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	frames := 0
	var bytesOut uint64
	deliver := &sc.deliver
	deliver.ConsumerTag = consumerTag
	for i, msg := range msgs {
		deliver.DeliveryTag = tags[i]
		deliver.Redelivered = redelivered[i]
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
	sc.srv.Stats.MessagesOut.Add(uint64(len(msgs)))
	sc.srv.Stats.BytesOut.Add(bytesOut)
	return nil
}
