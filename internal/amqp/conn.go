package amqp

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/metrics"
	"ds2hpc/internal/wire"
)

var (
	reconnectsTotal   = metrics.Default.Counter("amqp.reconnects")
	reconnectFailures = metrics.Default.Counter("amqp.reconnect_failures")
	replayedPublishes = metrics.Default.Counter("amqp.replayed_publishes")
	staleAcksDropped  = metrics.Default.Counter("amqp.stale_acks_dropped")
	redirectsFollowed = metrics.Default.Counter("amqp.redirects")
)

// errSuspended reports a synchronous call interrupted by a transport loss
// while the connection reconnects. The operation may or may not have
// executed; idempotent declarations can simply be retried.
var errSuspended = errors.New("amqp: connection lost mid-call (reconnecting)")

// ReconnectPolicy bounds automatic reconnection after an abnormal
// transport loss. While reconnecting, confirm-mode publishes are queued
// and replayed, consumers are re-established, and deliveries left
// unacknowledged on the dead transport are requeued by the broker; the
// connection shuts down for good once MaxAttempts dials fail.
type ReconnectPolicy struct {
	// MaxAttempts bounds redial attempts per outage (default 8).
	MaxAttempts int
	// Delay is the backoff before the second attempt (default 50ms); it
	// doubles per attempt up to MaxDelay (default 2s). The first attempt
	// is immediate.
	Delay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.Delay <= 0 {
		p.Delay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// retry runs attempt up to MaxAttempts times under the policy's backoff
// schedule (immediate first try, then Delay doubling to MaxDelay),
// stopping early when attempt reports success or stop asks to abort. It
// is the single backoff implementation shared by the initial dial and
// the mid-run reconnect loop.
func (p ReconnectPolicy) retry(stop func() bool, attempt func() bool) bool {
	delay := p.Delay
	for i := 0; i < p.MaxAttempts; i++ {
		if i > 0 {
			time.Sleep(delay)
			delay *= 2
			if delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		if stop != nil && stop() {
			return false
		}
		if attempt() {
			return true
		}
	}
	return false
}

// Config controls connection establishment.
type Config struct {
	// VHost overrides the vhost from the URI when non-empty.
	VHost string
	// TLS enables AMQPS with the given client configuration.
	TLS *tls.Config
	// Dial overrides the transport dialer (used to route through netem
	// links, SciStream proxies, or the MSS load balancer — typically a
	// transport.Path composition).
	Dial func(network, addr string) (net.Conn, error)
	// FrameMax caps the negotiated frame size; zero accepts the server's.
	FrameMax uint32
	// Heartbeat requests a heartbeat interval; zero disables.
	Heartbeat time.Duration
	// Properties are reported to the server during negotiation.
	Properties Table
	// Reconnect enables bounded auto-reconnect with unconfirmed-publish
	// replay; nil keeps the legacy fail-fast behaviour.
	Reconnect *ReconnectPolicy
	// Seeds are alternative broker addresses (host:port) the reconnect
	// loop rotates through when a dial attempt fails — the cluster-aware
	// fallback for a dead queue master: dial a surviving node, and its
	// connection-level redirect (connection.close 302) points the client
	// at the queue's new master. Ignored without Reconnect.
	Seeds []string
}

// Connection is a client connection multiplexing channels over one socket.
type Connection struct {
	// conn and fr are the live transport; both are replaced on reconnect
	// (conn under mu+writeMu, fr under mu with no read loop running). dec
	// belongs to whichever goroutine reads fr: the read loop, or resume
	// while no read loop runs.
	conn net.Conn
	fr   *wire.FrameReader
	dec  wire.Decoder

	// writeMu guards the send side: out, the one send buffer (outFrames
	// counts its frames), and kicked, set while a flushSoon goroutine has
	// yet to take writeMu — at most one per connection, none on an idle one.
	// pub, ack, nack and reject are the method scratch publishes and
	// delivery resolutions encode from, so no method struct escapes to the
	// heap per call.
	writeMu   sync.Mutex
	out       *wire.Writer
	outFrames int
	kicked    bool
	flush     func() // flushSoon, bound once: a go statement on a method value allocates
	pub       wire.BasicPublish
	ack       wire.BasicAck
	nack      wire.BasicNack
	reject    wire.BasicReject

	mu        sync.Mutex
	channels  map[uint16]*Channel
	nextCh    uint16
	freeCh    []uint16 // ids of closed channels, reused before growing nextCh
	closed    bool
	closeErr  error
	notifyCls []chan *Error
	suspended bool
	epoch     uint64        // bumped per successful reconnect
	genCh     chan struct{} // closed when the current transport dies
	resumedCh chan struct{} // closed when a suspension ends (resume/shutdown)
	// replayActive/replayAgain serialize consumer replay: one replayer
	// goroutine at a time, re-running while reconnects keep landing.
	replayActive bool
	replayAgain  bool

	uri   URI
	vhost string
	cfg   Config

	// deferredConfirms collects confirmations read during a resume (only
	// the resume goroutine touches it); they are delivered to listeners
	// after writeMu is released, so a listener's drainer blocked on a
	// write can never deadlock the resume.
	deferredConfirms []deferredConfirm

	frameMax   atomic.Uint32
	chanMax    atomic.Uint32
	reconnects atomic.Uint64
	done       chan struct{}
	hbStop     chan struct{}
}

// deferredConfirm is one broker confirmation buffered during resume.
type deferredConfirm struct {
	channel  uint16
	tag      uint64
	multiple bool
	ack      bool
}

// Error is a connection or channel exception.
type Error struct {
	Code   uint16
	Reason string
}

func (e *Error) Error() string { return fmt.Sprintf("amqp: exception %d: %s", e.Code, e.Reason) }

// Dial connects using the default configuration.
func Dial(url string) (*Connection, error) { return DialConfig(url, Config{}) }

// DialTLS connects with AMQPS.
func DialTLS(url string, tlsCfg *tls.Config) (*Connection, error) {
	return DialConfig(url, Config{TLS: tlsCfg})
}

// dialTransport dials the raw transport for u, applying TLS when the
// scheme or configuration asks for it.
func dialTransport(u URI, cfg Config) (net.Conn, error) {
	dial := cfg.Dial
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, 10*time.Second)
		}
	}
	raw, err := dial("tcp", u.Host)
	if err != nil {
		return nil, err
	}
	if u.Scheme == "amqps" || cfg.TLS != nil {
		tcfg := cfg.TLS
		if tcfg == nil {
			tcfg = &tls.Config{InsecureSkipVerify: true}
		}
		tlsConn := tls.Client(raw, tcfg)
		if err := tlsConn.Handshake(); err != nil {
			raw.Close()
			return nil, fmt.Errorf("amqp: tls handshake: %w", err)
		}
		raw = tlsConn
	}
	return raw, nil
}

// DialConfig connects with explicit configuration. When a reconnect
// policy is set, the initial dial retries under the same schedule, so a
// client starting during a path outage rides it out like an established
// one would.
func DialConfig(url string, cfg Config) (*Connection, error) {
	u, err := ParseURI(url)
	if err != nil {
		return nil, err
	}
	vhost := u.VHost
	if cfg.VHost != "" {
		vhost = cfg.VHost
	}
	if cfg.Reconnect == nil {
		return dialOnce(u, vhost, cfg)
	}
	var c *Connection
	var lastErr error
	cfg.Reconnect.withDefaults().retry(nil, func() bool {
		c, lastErr = dialOnce(u, vhost, cfg)
		if lastErr != nil && len(cfg.Seeds) > 0 {
			// Same rotation the reconnect loop uses: a fresh client whose
			// first target is a dead node walks the seed list instead of
			// hammering the dead address.
			u.Host = nextSeed(u.Host, cfg.Seeds)
		}
		return lastErr == nil
	})
	if lastErr != nil {
		return nil, lastErr
	}
	return c, nil
}

// dialOnce performs one dial + protocol handshake and starts the
// connection's background loops.
func dialOnce(u URI, vhost string, cfg Config) (*Connection, error) {
	raw, err := dialTransport(u, cfg)
	if err != nil {
		return nil, err
	}
	c := &Connection{
		conn:     raw,
		fr:       wire.NewFrameReader(raw, 0),
		out:      wire.NewWriter(),
		channels: map[uint16]*Channel{},
		uri:      u,
		vhost:    vhost,
		cfg:      cfg,
		genCh:    make(chan struct{}),
		done:     make(chan struct{}),
		hbStop:   make(chan struct{}),
	}
	c.flush = c.flushSoon
	c.frameMax.Store(wire.DefaultFrameMax)
	hb, err := c.handshake(c.fr)
	if err != nil {
		raw.Close()
		return nil, err
	}
	if hb > 0 {
		go c.heartbeatLoop(hb)
	}
	go c.readLoop(c.fr)
	return c, nil
}

// reconnectEnabled reports whether this connection tracks reconnect state.
func (c *Connection) reconnectEnabled() bool { return c.cfg.Reconnect != nil }

// currentEpoch returns the transport epoch (bumped per reconnect).
func (c *Connection) currentEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Reconnects reports how many times the connection has reconnected.
func (c *Connection) Reconnects() uint64 { return c.reconnects.Load() }

// handshake negotiates the protocol on the current transport. Writes go
// straight to the socket: at dial time the connection is not yet shared,
// and at resume time the caller holds writeMu. It returns the negotiated
// heartbeat interval (zero when disabled).
func (c *Connection) handshake(fr *wire.FrameReader) (time.Duration, error) {
	cfg := c.cfg
	if err := wire.WriteProtocolHeader(c.conn); err != nil {
		return 0, err
	}
	m, err := c.readMethod(fr)
	if err != nil {
		return 0, err
	}
	if _, ok := m.(*wire.ConnectionStart); !ok {
		return 0, fmt.Errorf("amqp: expected connection.start, got %T", m)
	}
	props := cfg.Properties
	if props == nil {
		props = Table{"product": "ds2hpc-client"}
	}
	if err := c.writeMethodRaw(0, &wire.ConnectionStartOk{
		ClientProperties: props,
		Mechanism:        "PLAIN",
		Response:         []byte("\x00guest\x00guest"),
		Locale:           "en_US",
	}); err != nil {
		return 0, err
	}
	m, err = c.readMethod(fr)
	if err != nil {
		return 0, err
	}
	tune, ok := m.(*wire.ConnectionTune)
	if !ok {
		return 0, fmt.Errorf("amqp: expected connection.tune, got %T", m)
	}
	frameMax := tune.FrameMax
	if cfg.FrameMax > 0 && cfg.FrameMax < frameMax {
		frameMax = cfg.FrameMax
	}
	c.frameMax.Store(frameMax)
	chanMax := tune.ChannelMax
	if chanMax == 0 {
		chanMax = 65535 // 0 = "no limit" per the spec; ids are 16-bit
	}
	c.chanMax.Store(uint32(chanMax))
	fr.SetFrameMax(frameMax + 1024)
	hb := uint16(cfg.Heartbeat / time.Second)
	if tune.Heartbeat < hb {
		hb = tune.Heartbeat
	}
	if err := c.writeMethodRaw(0, &wire.ConnectionTuneOk{
		ChannelMax: tune.ChannelMax, FrameMax: frameMax, Heartbeat: hb,
	}); err != nil {
		return 0, err
	}
	if err := c.writeMethodRaw(0, &wire.ConnectionOpen{VirtualHost: c.vhost}); err != nil {
		return 0, err
	}
	m, err = c.readMethod(fr)
	if err != nil {
		return 0, err
	}
	if _, ok := m.(*wire.ConnectionOpenOk); !ok {
		return 0, fmt.Errorf("amqp: expected connection.open-ok, got %T", m)
	}
	return time.Duration(hb) * time.Second, nil
}

func (c *Connection) readMethod(fr *wire.FrameReader) (wire.Method, error) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		if f.Type == wire.FrameHeartbeat {
			continue
		}
		if f.Type != wire.FrameMethod || f.Channel != 0 {
			return nil, fmt.Errorf("amqp: unexpected frame during handshake")
		}
		return wire.ParseMethod(f.Payload)
	}
}

func (c *Connection) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval / 2)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			c.writeFrame(wire.Frame{Type: wire.FrameHeartbeat})
		}
	}
}

// ErrChannelMax reports a connection whose negotiated channel-id space
// is fully in use; close a channel (or open another connection) first.
var ErrChannelMax = errors.New("amqp: negotiated channel limit reached")

// ChannelMax reports the channel-id capacity negotiated at handshake.
// Pools size their per-connection session fan-out from it.
func (c *Connection) ChannelMax() int { return int(c.chanMax.Load()) }

// Channel opens a new channel. Ids of cleanly closed channels are
// recycled, so long-lived connections can churn through far more than
// ChannelMax short-lived channels.
func (c *Connection) Channel() (*Channel, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	var id uint16
	if n := len(c.freeCh); n > 0 {
		id = c.freeCh[n-1]
		c.freeCh = c.freeCh[:n-1]
	} else {
		if uint32(c.nextCh) >= c.chanMax.Load() {
			c.mu.Unlock()
			return nil, ErrChannelMax
		}
		c.nextCh++
		id = c.nextCh
	}
	ch := newChannel(c, id)
	c.channels[id] = ch
	c.mu.Unlock()

	if _, err := ch.call(&wire.ChannelOpen{}); err != nil {
		c.removeChannel(id)
		return nil, err
	}
	return ch, nil
}

// NotifyClose registers a listener for abnormal connection shutdown.
func (c *Connection) NotifyClose(ch chan *Error) chan *Error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		close(ch)
		return ch
	}
	c.notifyCls = append(c.notifyCls, ch)
	return ch
}

// Close performs an orderly shutdown.
func (c *Connection) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	// Best-effort close handshake; tolerate a dead peer.
	c.writeMethod(0, &wire.ConnectionClose{ReplyCode: wire.ReplySuccess, ReplyText: "bye"})
	c.shutdown(nil)
	return nil
}

// IsClosed reports whether the connection is terminated.
func (c *Connection) IsClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Connection) shutdown(err *Error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if err != nil {
		c.closeErr = err
	}
	if c.resumedCh != nil {
		close(c.resumedCh) // release awaitResume waiters; they see closed
		c.resumedCh = nil
	}
	conn := c.conn
	chans := make([]*Channel, 0, len(c.channels))
	for _, ch := range c.channels {
		chans = append(chans, ch)
	}
	c.channels = map[uint16]*Channel{}
	notify := c.notifyCls
	c.notifyCls = nil
	c.mu.Unlock()

	close(c.done)
	close(c.hbStop)
	conn.Close()
	for _, ch := range chans {
		ch.shutdown(err)
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

// beginReconnect suspends the connection after a transport loss when the
// configuration allows reconnecting: in-flight synchronous calls are
// failed (they select on the generation channel), writers queue
// confirm-tracked publishes, and a background loop redials. It reports
// whether reconnection was started.
func (c *Connection) beginReconnect() bool {
	c.mu.Lock()
	if c.closed || !c.reconnectEnabled() || c.suspended {
		c.mu.Unlock()
		return false
	}
	c.suspended = true
	close(c.genCh)
	c.resumedCh = make(chan struct{})
	conn := c.conn
	c.mu.Unlock()
	conn.Close() // writers fail fast on the dead socket
	go c.reconnectLoop()
	return true
}

func (c *Connection) reconnectLoop() {
	closed := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closed // user Close won the race; shutdown already ran
	}
	ok := c.cfg.Reconnect.withDefaults().retry(closed, func() bool {
		raw, err := dialTransport(c.dialURI(), c.cfg)
		if err != nil {
			// The target is unreachable — a dead master, not a flapping
			// path — so rotate to the next seed; a surviving node will
			// redirect any consumer that actually belongs elsewhere.
			c.advanceSeed()
			return false
		}
		if err := c.resume(raw); err != nil {
			raw.Close()
			return false
		}
		return true
	})
	if ok {
		c.reconnects.Add(1)
		reconnectsTotal.Inc()
		return
	}
	if closed() {
		return
	}
	reconnectFailures.Inc()
	c.shutdown(&Error{Code: wire.ReplyInternalError, Reason: "amqp: reconnect attempts exhausted"})
}

// dialURI snapshots the current dial target under the connection lock
// (redirects and seed rotation mutate the host mid-outage).
func (c *Connection) dialURI() URI {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uri
}

// setTarget points subsequent dials at a new broker address — the
// client-side half of a connection-level redirect.
func (c *Connection) setTarget(host string) {
	c.mu.Lock()
	c.uri.Host = host
	c.mu.Unlock()
}

// advanceSeed rotates the dial target to the next configured seed after
// a failed dial: the entry after the current target when it is a seed,
// the first seed otherwise. Deterministic, so a fleet of clients walks
// the survivor list the same way.
func (c *Connection) advanceSeed() {
	if len(c.cfg.Seeds) == 0 {
		return
	}
	c.mu.Lock()
	c.uri.Host = nextSeed(c.uri.Host, c.cfg.Seeds)
	c.mu.Unlock()
}

// nextSeed returns the seed after cur in the list, or the first seed
// when cur is not a seed.
func nextSeed(cur string, seeds []string) string {
	idx := -1
	for i, s := range seeds {
		if s == cur {
			idx = i
			break
		}
	}
	return seeds[(idx+1)%len(seeds)]
}

// resume installs the new transport, redoes the protocol handshake, and
// replays channel state: channel.open, QoS, confirm mode, and every
// unconfirmed confirm-mode publish (in sequence order, so broker confirm
// tags map back onto the original client sequence numbers). Consumers are
// re-established through the normal RPC path once the read loop is live.
// It holds writeMu throughout, so no application write can interleave
// with the replay, and is the sole frame reader until the new read loop
// starts.
func (c *Connection) resume(raw net.Conn) error {
	c.writeMu.Lock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.writeMu.Unlock()
		return ErrClosed
	}
	c.conn = raw
	// Nothing encoded for the dead transport may reach this one: tracked
	// publishes await the replay below, the rest is lost as in the old socket.
	c.out.Reset()
	c.outFrames = 0
	fr := wire.NewFrameReader(raw, 0)
	c.fr = fr
	c.epoch++
	chans := make([]*Channel, 0, len(c.channels))
	for _, ch := range c.channels {
		chans = append(chans, ch)
	}
	c.mu.Unlock()
	sort.Slice(chans, func(i, j int) bool { return chans[i].id < chans[j].id })
	c.deferredConfirms = c.deferredConfirms[:0]

	if _, err := c.handshake(fr); err != nil {
		c.writeMu.Unlock()
		return err
	}
	for _, ch := range chans {
		if err := ch.replayState(fr); err != nil {
			c.writeMu.Unlock()
			return err
		}
	}
	c.mu.Lock()
	c.suspended = false
	c.genCh = make(chan struct{})
	if c.resumedCh != nil {
		close(c.resumedCh)
		c.resumedCh = nil
	}
	c.mu.Unlock()
	c.writeMu.Unlock()

	// Deliver confirmations that arrived during the replay now that the
	// write lock is free (their listeners' drainers may themselves be
	// blocked on writes), and before the read loop can deliver newer
	// ones, preserving per-channel confirm order.
	deferred := c.deferredConfirms
	c.deferredConfirms = nil
	for _, dc := range deferred {
		if ch := c.channelByID(dc.channel); ch != nil {
			ch.dispatchConfirm(dc.tag, dc.multiple, dc.ack)
		}
	}
	go c.readLoop(fr)
	// Consumers go through the regular synchronous path: the read loop
	// must be live to route their -ok replies (and the deliveries that
	// follow immediately behind them).
	c.kickConsumerReplay()
	return nil
}

// kickConsumerReplay runs consumer re-subscription on a single replayer
// goroutine, re-running while further reconnects land. Serializing the
// passes (plus the per-consumer landing-epoch records in the channels)
// guarantees a consumer tag is never subscribed twice on one transport,
// which the broker would reject as a duplicate.
func (c *Connection) kickConsumerReplay() {
	c.mu.Lock()
	if c.replayActive {
		c.replayAgain = true
		c.mu.Unlock()
		return
	}
	c.replayActive = true
	c.mu.Unlock()
	go func() {
		for {
			c.mu.Lock()
			target := c.epoch
			chans := make([]*Channel, 0, len(c.channels))
			for _, ch := range c.channels {
				chans = append(chans, ch)
			}
			c.mu.Unlock()
			sort.Slice(chans, func(i, j int) bool { return chans[i].id < chans[j].id })
			for _, ch := range chans {
				ch.replayConsumers(target)
			}
			c.mu.Lock()
			if !c.replayAgain {
				c.replayActive = false
				c.mu.Unlock()
				return
			}
			c.replayAgain = false
			c.mu.Unlock()
		}
	}()
}

// replayCall performs one synchronous method call during resume: the
// caller holds writeMu and owns the frame reader. Unrelated frames that
// arrive first (confirms for channels replayed earlier) are dispatched
// like the read loop would.
func (c *Connection) replayCall(fr *wire.FrameReader, channel uint16, m wire.Method) (wire.Method, error) {
	if err := c.writeMethodRaw(channel, m); err != nil {
		return nil, err
	}
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return nil, err
		}
		if f.Type == wire.FrameMethod && f.Channel == channel {
			resp, err := wire.ParseMethod(f.Payload)
			if err != nil {
				return nil, err
			}
			if cl, ok := resp.(*wire.ChannelClose); ok {
				return nil, &Error{Code: cl.ReplyCode, Reason: cl.ReplyText}
			}
			return resp, nil
		}
		if stop, e := c.dispatchFrame(f, true); stop {
			if e != nil {
				return nil, e
			}
			return nil, ErrClosed
		}
	}
}

func (c *Connection) readLoop(fr *wire.FrameReader) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			if c.beginReconnect() {
				return
			}
			var e *Error
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				e = &Error{Code: wire.ReplyInternalError, Reason: err.Error()}
			}
			c.shutdown(e)
			return
		}
		if stop, e := c.dispatchFrame(f, false); stop {
			if e != nil && e.Code == wire.ReplyRedirect && c.beginReconnect() {
				// Redirect, not failure: dispatchFrame retargeted the
				// dial URI; the reconnect machinery replays channel
				// state and consumers on the queue's master.
				return
			}
			c.shutdown(e)
			return
		}
	}
}

// dispatchFrame routes one inbound frame to its channel. raw marks calls
// from the resume path, where writeMu is already held and protocol
// replies must bypass it. It reports whether the connection must stop,
// with the exception to surface.
func (c *Connection) dispatchFrame(f wire.Frame, raw bool) (stop bool, e *Error) {
	switch f.Type {
	case wire.FrameHeartbeat:
	case wire.FrameMethod:
		ch := c.channelByID(f.Channel)
		var slots *wire.Slots
		if ch != nil {
			slots = &ch.slots
		}
		m, err := c.dec.Method(f.Payload, slots)
		if err != nil {
			return true, &Error{Code: wire.ReplySyntaxError, Reason: err.Error()}
		}
		if f.Channel == 0 {
			if cl, ok := m.(*wire.ConnectionClose); ok {
				if cl.ReplyCode == wire.ReplyRedirect && cl.ReplyText != "" && c.reconnectEnabled() {
					// Connection-level redirect: the broker names the
					// queue's master in the reply text. Point the dial
					// target there before surfacing the stop — the read
					// loop turns a 302 into a reconnect, and the resume
					// path's failed attempt redials the new address.
					c.setTarget(cl.ReplyText)
					redirectsFollowed.Inc()
				}
				if raw {
					c.writeMethodRaw(0, &wire.ConnectionCloseOk{})
				} else {
					c.writeMethod(0, &wire.ConnectionCloseOk{})
				}
				return true, &Error{Code: cl.ReplyCode, Reason: cl.ReplyText}
			}
			return false, nil
		}
		if raw {
			// Resume-path dispatch holds writeMu, so protocol replies
			// bypass it and confirmations — whose listeners may be
			// drained by a goroutine blocked on a write — are buffered
			// for delivery after the lock is released.
			switch x := m.(type) {
			case *wire.ChannelClose:
				c.writeMethodRaw(f.Channel, &wire.ChannelCloseOk{})
				if ch != nil {
					c.removeChannel(f.Channel)
					ch.shutdown(&Error{Code: x.ReplyCode, Reason: x.ReplyText})
				}
				return false, nil
			case *wire.BasicAck:
				c.deferredConfirms = append(c.deferredConfirms, deferredConfirm{
					channel: f.Channel, tag: x.DeliveryTag, multiple: x.Multiple, ack: true,
				})
				return false, nil
			case *wire.BasicNack:
				c.deferredConfirms = append(c.deferredConfirms, deferredConfirm{
					channel: f.Channel, tag: x.DeliveryTag, multiple: x.Multiple, ack: false,
				})
				return false, nil
			}
		}
		if ch != nil {
			ch.onMethod(m)
		}
	case wire.FrameHeader:
		if ch := c.channelByID(f.Channel); ch != nil {
			h, err := c.dec.Header(f.Payload, &ch.slots)
			if err == nil {
				e = ch.onHeader(h)
			}
		}
	case wire.FrameBody:
		if ch := c.channelByID(f.Channel); ch != nil {
			e = ch.onBody(f.Payload)
		}
	}
	// A content frame that contradicts its header (or a header no buffer
	// should be sized from) means the stream cannot be trusted further.
	return e != nil, e
}

func (c *Connection) channelByID(id uint16) *Channel {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.channels[id]
}

func (c *Connection) removeChannel(id uint16) {
	c.mu.Lock()
	if _, ok := c.channels[id]; ok {
		delete(c.channels, id)
		// The close handshake for id has completed (or the broker initiated
		// it), so no more frames can arrive for the old incarnation and the
		// id is safe to hand out again.
		c.freeCh = append(c.freeCh, id)
	}
	c.mu.Unlock()
}

// genState snapshots the current transport generation for synchronous
// calls — the channel closes if the transport dies — together with the
// matching epoch: a write validated against the generation (writeMethodGen)
// is guaranteed to land on exactly that epoch's transport.
func (c *Connection) genState() (chan struct{}, bool, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.genCh, c.suspended, c.epoch
}

// awaitResume blocks while the connection is suspended, reporting true
// once it is live again and false once it is closed for good. Waiters
// park on the per-outage resumed channel rather than polling.
func (c *Connection) awaitResume() bool {
	for {
		c.mu.Lock()
		closed, suspended, wait := c.closed, c.suspended, c.resumedCh
		c.mu.Unlock()
		if closed {
			return false
		}
		if !suspended {
			return true
		}
		if wait == nil {
			// Suspension without a wait channel cannot normally happen;
			// degrade to a short sleep rather than spinning.
			time.Sleep(time.Millisecond)
			continue
		}
		<-wait
	}
}

// sendBufMax (one gathered write, wire's gatherMax) is the pending size at
// which a publish flushes inline — memory is bounded, back-pressure kept —
// and the body size from which a publish borrows its body.
const sendBufMax = 64 * 1024

// sendLocked is the one way frames reach the socket. The caller holds
// writeMu and has checked w.Err. w's frames go behind whatever is pending
// in the one send buffer, so wire order is call order. A frame set that
// awaits no reply (inline false: a publish) and borrows nothing (its body
// was copied into w) then returns at once and leaves the write to
// flushSoon, started here unless one is already scheduled; everything
// else flushes the lot before returning.
func (c *Connection) sendLocked(w *wire.Writer, frames int, inline bool) error {
	c.out.AppendWriter(w)
	c.outFrames += frames
	if inline || w.Len() > len(w.Bytes()) || c.out.Len() >= sendBufMax {
		return c.flushLocked()
	}
	if !c.kicked {
		c.kicked = true
		go c.flush()
	}
	return nil
}

func (c *Connection) flushLocked() error {
	frames := c.outFrames
	c.outFrames = 0
	return c.out.FlushFrames(c.conn, frames)
}

// flushSoon is the scheduled flush. It runs when the scheduler reaches it
// — behind the publisher's burst on a busy P, at once on an idle one — so
// a lone publish is not held back. A write error is the read loop's to see.
func (c *Connection) flushSoon() {
	c.writeMu.Lock()
	c.kicked = false
	c.flushLocked()
	c.writeMu.Unlock()
}

// encodeMethod frames m into a pooled writer the caller recycles; a
// marshal error is reported before a byte reaches the send buffer.
func encodeMethod(channel uint16, m wire.Method) (*wire.Writer, error) {
	w := wire.GetWriter()
	w.AppendMethodFrame(channel, m)
	if err := w.Err(); err != nil {
		wire.PutWriter(w)
		return nil, err
	}
	return w, nil
}

func (c *Connection) writeFrame(f wire.Frame) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.AppendRawFrame(f.Type, f.Channel, f.Payload)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.sendLocked(w, 1, true)
}

func (c *Connection) writeMethod(channel uint16, m wire.Method) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.writeMethodRaw(channel, m)
}

// writeMethodRaw writes without taking writeMu: used during handshake
// (no concurrent writers yet) and resume (writeMu already held).
func (c *Connection) writeMethodRaw(channel uint16, m wire.Method) error {
	w, err := encodeMethod(channel, m)
	if err != nil {
		return err
	}
	defer wire.PutWriter(w)
	return c.sendLocked(w, 1, true)
}

// writeMethodGen writes a synchronous method only if the transport
// generation still matches gen, so a call never lands on a transport
// whose reply would go to a different waiter. Socket failures on a
// reconnecting connection surface as errSuspended (the read loop flips
// to suspension moments later); marshal errors stay as-is — they are
// permanent and must not be retried.
func (c *Connection) writeMethodGen(gen chan struct{}, channel uint16, m wire.Method) error {
	w, err := encodeMethod(channel, m)
	if err != nil {
		return err
	}
	defer wire.PutWriter(w)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	ok := !c.suspended && c.genCh == gen
	c.mu.Unlock()
	if !ok {
		return errSuspended
	}
	if err = c.sendLocked(w, 1, true); err != nil && c.reconnectEnabled() {
		err = errSuspended
	}
	return err
}

// settleKind is the method a delivery resolution goes out as.
type settleKind uint8

const (
	settleAck settleKind = iota
	settleNack
	settleReject
)

// writeSettle writes one delivery resolution — basic.ack, basic.nack or
// basic.reject — encoded from the method scratch under writeMu. With an
// epoch other than epochCurrent it writes only while that transport epoch
// is still live: after a reconnect the broker has requeued the deliveries
// those tags named, so stale resolutions are dropped rather than
// misapplied to new deliveries.
func (c *Connection) writeSettle(epoch uint64, channel uint16, kind settleKind, tag uint64, multiple, requeue bool) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if epoch != epochCurrent {
		c.mu.Lock()
		stale := c.epoch != epoch || c.suspended
		c.mu.Unlock()
		if stale {
			staleAcksDropped.Inc()
			return nil
		}
	}
	var m wire.Method
	switch kind {
	case settleAck:
		c.ack = wire.BasicAck{DeliveryTag: tag, Multiple: multiple}
		m = &c.ack
	case settleNack:
		c.nack = wire.BasicNack{DeliveryTag: tag, Multiple: multiple, Requeue: requeue}
		m = &c.nack
	default:
		c.reject = wire.BasicReject{DeliveryTag: tag, Requeue: requeue}
		m = &c.reject
	}
	err := c.writeMethodRaw(channel, m)
	if err != nil && epoch != epochCurrent && c.reconnectEnabled() {
		// Transport died mid-ack: the broker requeues the delivery when
		// it notices, so the ack is simply dropped.
		staleAcksDropped.Inc()
		return nil
	}
	return err
}

// encodeContentLocked frames a publish into a pooled writer the caller
// recycles; the caller holds writeMu, since the method encodes from the
// scratch. A body under sendBufMax is copied in, to share a write with
// the publishes around it: on a tls.Conn or a wrapped socket the write
// would copy it anyway (wire's gathered writes), and a borrow costs a
// write of its own. From sendBufMax up the body is borrowed
// (wire.AppendContentFramesZC), and sendLocked flushes a borrow inline,
// so the caller's slice is read before Publish returns and not after —
// the rule the broker's delivery path lives by.
func (c *Connection) encodeContentLocked(channel uint16, m wire.BasicPublish, props *wire.Properties, body []byte) (*wire.Writer, int, error) {
	c.pub = m
	w := wire.GetWriter()
	var frames int
	if len(body) < sendBufMax {
		frames = w.AppendContentFrames(channel, &c.pub, props, body, c.frameMax.Load())
	} else {
		frames = w.AppendContentFramesZC(channel, &c.pub, props, body, c.frameMax.Load())
	}
	if err := w.Err(); err != nil {
		wire.PutWriter(w)
		return nil, 0, err
	}
	return w, frames, nil
}

// writeContent sends a publish's method+header+body frames as one unit,
// atomic with respect to other writers on this connection. A body under
// sendBufMax shares the scheduled flush with the publishes around it
// (sendLocked); a larger one is written before this returns, and what
// that costs per destination kind is wire.FlushFrames' decision.
func (c *Connection) writeContent(channel uint16, m wire.BasicPublish, props *wire.Properties, body []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.writeContentRaw(channel, m, props, body)
}

// writeContentTracked writes a confirm-mode publish on a reconnecting
// connection. The broker confirm tag is assigned inside writeMu, at
// append time, so tag order always matches the order frames reach the
// wire; the epoch check happens under the same lock, so a publish never
// races the resume path's map rebuild — when the transport is suspended
// or the tag map belongs to an older epoch, the publish stays in pending
// (already recorded by the caller) and the replay owns it. Marshal errors
// are permanent and propagate; socket errors mean the reconnect replay
// will resend, so they report success.
func (c *Connection) writeContentTracked(ch *Channel, seq uint64, m wire.BasicPublish, props *wire.Properties, body []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	w, frames, err := c.encodeContentLocked(ch.id, m, props, body)
	if err != nil {
		return err
	}
	defer wire.PutWriter(w)
	c.mu.Lock()
	epoch, suspended := c.epoch, c.suspended
	c.mu.Unlock()
	ch.mu.Lock()
	// Skip the write when the replay owns this publish: the transport is
	// suspended, the tag map belongs to another epoch, or a resume ran
	// between this publish's bookkeeping and its (writeMu-blocked) write
	// — the rebuild snapshot included it, so writing here too would put
	// it on the wire twice and shift every later confirm mapping.
	if suspended || epoch != ch.mapEpoch || seq <= ch.replayedThrough {
		ch.mu.Unlock()
		return nil
	}
	ch.brokerSeq++
	ch.pubMap[ch.brokerSeq] = seq
	ch.mu.Unlock()
	c.sendLocked(w, frames, false) // transport died mid-write: the replay resends it
	return nil
}

// writeContentRaw writes content with writeMu held: writeContent, resume.
func (c *Connection) writeContentRaw(channel uint16, m wire.BasicPublish, props *wire.Properties, body []byte) error {
	w, frames, err := c.encodeContentLocked(channel, m, props, body)
	if err != nil {
		return err
	}
	defer wire.PutWriter(w)
	return c.sendLocked(w, frames, false)
}
