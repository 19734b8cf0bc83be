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

	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

var (
	reconnectsTotal   = telemetry.Default.Counter("amqp.reconnects")
	reconnectFailures = telemetry.Default.Counter("amqp.reconnect_failures")
	replayedPublishes = telemetry.Default.Counter("amqp.replayed_publishes")
	staleAcksDropped  = telemetry.Default.Counter("amqp.stale_acks_dropped")
	redirectsFollowed = telemetry.Default.Counter("amqp.redirects")
)

// errSuspended reports a synchronous call interrupted by a transport loss
// while the connection reconnects. The operation may or may not have
// executed; idempotent declarations can simply be retried.
var errSuspended = errors.New("amqp: connection lost mid-call (reconnecting)")

// ReconnectPolicy bounds automatic reconnection after an abnormal
// transport loss. While reconnecting, confirm-mode publishes are queued
// and replayed, consumers are re-established in subscription order under
// the prefetch each subscribed with, and deliveries left unacknowledged
// on the dead transport are requeued by the broker; the connection shuts
// down for good once MaxAttempts dials fail.
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
// stopping early when attempt reports success or stop is closed, which
// also cuts a backoff short. It is the single backoff implementation
// shared by the initial dial and the mid-run reconnect loop.
func (p ReconnectPolicy) retry(stop <-chan struct{}, attempt func() bool) bool {
	delay := p.Delay
	for i := 0; i < p.MaxAttempts; i++ {
		if i > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return false
			}
			delay = min(2*delay, p.MaxDelay)
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
//
// One goroutine owns the transport: it reads every frame, redials and
// handshakes between transports, and is the only closer of the channels
// the library sends on — deliveries, confirm and return listeners, close
// notifications. Its sends on them also wait on Close, so an undrained
// listener stalls the connection until Close, which then closes it.
// Connection.Close, Channel.Close and Channel.Cancel ask the owner to end
// what they end and return once it has; never call them (or any other
// synchronous method) from a ConsumeFunc handler, which runs on the owner.
type Connection struct {
	// conn is the live transport, replaced on reconnect under mu and
	// writeMu. dec belongs to the owner goroutine.
	conn net.Conn
	dec  wire.Decoder

	// writeMu guards the send side: out, the one send buffer (outFrames
	// counts its frames), and kicked, set while a flushSoon goroutine has
	// yet to take writeMu — at most one per connection, none on an idle one.
	// pub, ack, nack and reject are the method scratch publishes and
	// delivery resolutions encode from, so no method struct escapes to the
	// heap per call. down is set from a transport loss until the next
	// handshake completes; epoch (also under mu) counts transport losses.
	writeMu   sync.Mutex
	out       *wire.Writer
	outFrames int
	kicked    bool
	flush     func() // flushSoon, bound once: a go statement on a method value allocates
	pub       wire.BasicPublish
	ack       wire.BasicAck
	nack      wire.BasicNack
	reject    wire.BasicReject
	down      bool

	mu        sync.Mutex
	channels  map[uint16]*Channel
	nextCh    uint16
	freeCh    []uint16 // ids of closed channels, reused before growing nextCh
	quitting  bool     // Close was called; the owner is winding down
	closed    bool
	closeErr  error
	notifyCls []chan *Error
	epoch     uint64
	// genCh identifies the transport synchronous calls may go out on: the
	// owner closes it (and clears it) when a reconnecting connection loses
	// its transport, and makes a new one per handshake.
	genCh chan struct{}
	// resumedCh is non-nil from a transport loss until the replay has
	// re-established every channel, when it is closed (as it is when the
	// connection closes): what suspended callers park on.
	resumedCh chan struct{}

	uri   URI
	vhost string
	cfg   Config

	frameMax   atomic.Uint32
	chanMax    atomic.Uint32
	reconnects atomic.Uint64
	quit       chan struct{} // closed by Close: releases the owner's sends
	done       chan struct{} // closed by the owner once everything is closed
	hbStop     chan struct{}
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

// handshakeTimeout bounds a transport's setup, the TLS handshake and the
// AMQP negotiation, on the first dial and on every redial: a peer that
// accepts the connection and then says nothing fails the dial instead of
// hanging it (a transport whose SetDeadline is a no-op stays unbounded).
// A variable so tests can shorten it.
var handshakeTimeout = 10 * time.Second

// dialTransport dials the raw transport for u, applying TLS when the
// scheme or configuration asks for it. The returned conn carries the
// handshake deadline, which the caller clears once the AMQP handshake is
// done.
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
	raw.SetDeadline(time.Now().Add(handshakeTimeout))
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
// connection's owner goroutine.
func dialOnce(u URI, vhost string, cfg Config) (*Connection, error) {
	raw, err := dialTransport(u, cfg)
	if err != nil {
		return nil, err
	}
	c := &Connection{
		conn:     raw,
		out:      wire.NewWriter(),
		channels: map[uint16]*Channel{},
		uri:      u,
		vhost:    vhost,
		cfg:      cfg,
		genCh:    make(chan struct{}),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		hbStop:   make(chan struct{}),
	}
	c.flush = c.flushSoon
	c.frameMax.Store(wire.DefaultFrameMax)
	fr := wire.NewFrameReader(raw, 0)
	hb, err := c.handshake(raw, fr)
	if err != nil {
		raw.Close()
		return nil, err
	}
	raw.SetDeadline(time.Time{})
	if hb > 0 {
		go c.heartbeatLoop(hb)
	}
	go c.run(fr)
	return c, nil
}

// reconnectEnabled reports whether this connection tracks reconnect state.
func (c *Connection) reconnectEnabled() bool { return c.cfg.Reconnect != nil }

// Reconnects reports how many times the connection has reconnected.
func (c *Connection) Reconnects() uint64 { return c.reconnects.Load() }

// handshake negotiates the protocol on raw, which nothing else writes to
// yet: at dial time the connection is not shared, and after a loss every
// other writer waits for the replay. It returns the negotiated heartbeat
// interval (zero when disabled).
func (c *Connection) handshake(raw net.Conn, fr *wire.FrameReader) (time.Duration, error) {
	cfg := c.cfg
	write := func(m wire.Method) error {
		w, err := encodeMethod(0, m)
		if err != nil {
			return err
		}
		defer wire.PutWriter(w)
		return w.FlushFrames(raw, 1)
	}
	if err := wire.WriteProtocolHeader(raw); err != nil {
		return 0, err
	}
	m, err := readMethod(fr)
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
	if err := write(&wire.ConnectionStartOk{
		ClientProperties: props,
		Mechanism:        "PLAIN",
		Response:         []byte("\x00guest\x00guest"),
		Locale:           "en_US",
	}); err != nil {
		return 0, err
	}
	m, err = readMethod(fr)
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
	if err := write(&wire.ConnectionTuneOk{
		ChannelMax: tune.ChannelMax, FrameMax: frameMax, Heartbeat: hb,
	}); err != nil {
		return 0, err
	}
	if err := write(&wire.ConnectionOpen{VirtualHost: c.vhost}); err != nil {
		return 0, err
	}
	m, err = readMethod(fr)
	if err != nil {
		return 0, err
	}
	if _, ok := m.(*wire.ConnectionOpenOk); !ok {
		return 0, fmt.Errorf("amqp: expected connection.open-ok, got %T", m)
	}
	return time.Duration(hb) * time.Second, nil
}

func readMethod(fr *wire.FrameReader) (wire.Method, error) {
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
			c.writeHeartbeat()
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
// ChannelMax short-lived channels. A channel registered before a
// transport loss is opened by the reconnect's replay, so an interrupted
// channel.open is not re-issued.
func (c *Connection) Channel() (*Channel, error) {
	var ch *Channel
	var gen chan struct{}
	for ch == nil {
		var err error
		if gen, err = c.admit(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.genCh != gen {
			c.mu.Unlock()
			continue // lost the transport since admit: wait out its replay
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
		ch = newChannel(c, id)
		c.channels[id] = ch
		c.mu.Unlock()
	}
	_, err := ch.callOnce(gen, &wire.ChannelOpen{}, false)
	if errors.Is(err, errSuspended) {
		if c.awaitResume() {
			return ch, nil
		}
		err = ErrClosed
	}
	if err != nil {
		c.removeChannel(ch.id)
		return nil, err
	}
	return ch, nil
}

// NotifyClose registers a listener for abnormal connection shutdown. The
// owner sends the exception, if there is one and the listener has room,
// then closes it. A listener registered after shutdown is closed at once.
func (c *Connection) NotifyClose(ch chan *Error) chan *Error {
	return listen(&c.mu, &c.closed, &c.notifyCls, ch)
}

// Close performs an orderly shutdown: a best-effort connection.close,
// then the socket is closed, and Close returns once the owner has closed
// every channel and listener. Never call it from a ConsumeFunc handler.
func (c *Connection) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	first := !c.quitting
	c.quitting = true
	conn := c.conn
	c.mu.Unlock()
	if first {
		c.writeMu.Lock()
		if !c.down {
			c.writeMethodLocked(0, &wire.ConnectionClose{ReplyCode: wire.ReplySuccess, ReplyText: "bye"})
		}
		c.writeMu.Unlock()
		close(c.quit)
		conn.Close()
	}
	<-c.done
	return nil
}

// IsClosed reports whether the connection is terminated.
func (c *Connection) IsClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// run is the owner goroutine: it serves one transport at a time and, on a
// reconnecting connection, redials between them and starts each new
// transport's replay. It alone shuts the connection down.
func (c *Connection) run(fr *wire.FrameReader) {
	var replaying chan struct{} // closed when the current transport's replay exits
	for {
		e, resumable := c.serve(fr)
		quitting := c.lose()
		if replaying != nil {
			<-replaying // its calls fail now that the generation is closed
			replaying = nil
		}
		if quitting {
			e = nil
		}
		if quitting || !resumable || !c.reconnectEnabled() {
			c.shutdown(e)
			return
		}
		c.hold()
		var gen chan struct{}
		fr, gen = c.redial()
		if fr == nil {
			select {
			case <-c.quit:
				e = nil
			default:
				reconnectFailures.Inc()
				e = &Error{Code: wire.ReplyInternalError, Reason: "amqp: reconnect attempts exhausted"}
			}
			c.shutdown(e)
			return
		}
		c.reconnects.Add(1)
		reconnectsTotal.Inc()
		replaying = make(chan struct{})
		go c.replay(gen, replaying)
	}
}

// serve reads and dispatches fr's frames until the transport ends. It
// returns the exception to surface, and whether a reconnect may follow:
// a transport failure or a redirect, not the broker closing the
// connection.
func (c *Connection) serve(fr *wire.FrameReader) (*Error, bool) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil, true
			}
			return &Error{Code: wire.ReplyInternalError, Reason: err.Error()}, true
		}
		if stop, e := c.dispatchFrame(f); stop {
			// A redirect is not a failure: dispatchFrame retargeted the dial
			// URI, and the replay re-establishes channels on the master.
			return e, e != nil && e.Code == wire.ReplyRedirect
		}
	}
}

// lose marks the current transport dead: on a reconnecting connection its
// generation is closed, which fails the calls waiting on it, and the
// connection is suspended. The socket is closed so writers fail fast. It
// reports whether Close was called.
func (c *Connection) lose() bool {
	c.mu.Lock()
	quitting := c.quitting
	if c.reconnectEnabled() && c.genCh != nil {
		close(c.genCh)
		c.genCh = nil
		if c.resumedCh == nil {
			c.resumedCh = make(chan struct{})
		}
	}
	conn := c.conn
	c.mu.Unlock()
	conn.Close()
	return quitting
}

// hold closes every channel's gate for the outage: application writes on
// a channel wait until the replay has re-established it, each confirm log
// holds its unresolved publishes for the replay, and each receive core
// starts the next epoch, abandoning the dead transport's delivery loans.
func (c *Connection) hold() {
	c.writeMu.Lock()
	c.mu.Lock()
	c.down = true
	c.epoch++
	for _, ch := range c.channels {
		ch.mu.Lock()
		if ch.gate == nil && !ch.closed {
			ch.gate = make(chan struct{})
		}
		ch.log.cut()
		ch.cut(c.epoch)
		ch.mu.Unlock()
	}
	c.mu.Unlock()
	c.writeMu.Unlock()
}

// redial dials and handshakes a new transport under the reconnect policy,
// returning its frame reader and generation, or nil once the attempts are
// exhausted or Close was called.
func (c *Connection) redial() (fr *wire.FrameReader, gen chan struct{}) {
	c.cfg.Reconnect.withDefaults().retry(c.quit, func() bool {
		raw, err := dialTransport(c.dialURI(), c.cfg)
		if err != nil {
			// The target is unreachable — a dead master, not a flapping
			// path — so rotate to the next seed; a surviving node will
			// redirect any consumer that actually belongs elsewhere.
			c.advanceSeed()
			return false
		}
		if fr, gen = c.install(raw); fr == nil {
			raw.Close()
			return false
		}
		return true
	})
	return fr, gen
}

// install makes raw the connection's transport and handshakes on it.
// Nothing encoded for the dead transport may reach this one: publishes the
// confirm logs keep await the replay, the rest is lost as in the old socket.
func (c *Connection) install(raw net.Conn) (*wire.FrameReader, chan struct{}) {
	c.writeMu.Lock()
	c.mu.Lock()
	quitting := c.quitting
	if !quitting {
		c.conn = raw
	}
	c.mu.Unlock()
	c.out.Reset()
	c.outFrames = 0
	c.writeMu.Unlock()
	if quitting {
		return nil, nil
	}
	fr := wire.NewFrameReader(raw, 0)
	if _, err := c.handshake(raw, fr); err != nil {
		return nil, nil
	}
	raw.SetDeadline(time.Time{})
	gen := make(chan struct{})
	c.writeMu.Lock()
	c.mu.Lock()
	c.down = false
	c.genCh = gen
	c.mu.Unlock()
	c.writeMu.Unlock()
	return fr, gen
}

// replay re-establishes every channel on the transport of generation gen
// while the owner serves it, through the ordinary call path: first each
// channel's channel.open, confirm mode and unresolved publishes, which
// opens that channel's gate, then the prefetch and consumers of each
// channel's replay record, so no delivery (and no handler) runs before
// every gate is open. A transport loss ends the pass; the next
// transport's replay starts over. Once it completes, the connection
// resumes.
func (c *Connection) replay(gen chan struct{}, done chan struct{}) {
	defer close(done)
	c.mu.Lock()
	chans := make([]*Channel, 0, len(c.channels))
	for _, ch := range c.channels {
		chans = append(chans, ch)
	}
	c.mu.Unlock()
	sort.Slice(chans, func(i, j int) bool { return chans[i].id < chans[j].id })
	for _, ch := range chans {
		if errors.Is(ch.replayState(gen), errSuspended) {
			return
		}
	}
	for _, ch := range chans {
		if errors.Is(ch.replaySubscriptions(gen), errSuspended) {
			return
		}
	}
	c.mu.Lock()
	if c.genCh == gen && c.resumedCh != nil {
		close(c.resumedCh)
		c.resumedCh = nil
	}
	c.mu.Unlock()
}

// shutdown ends the connection for good. Only the owner calls it: it
// closes every channel (and with them every delivery, confirm, return and
// notify channel the library sends on), then the connection's own close
// listeners, and finally done, which Close waits for.
func (c *Connection) shutdown(err *Error) {
	c.mu.Lock()
	c.closed = true
	if err != nil {
		c.closeErr = err
	}
	resumed := c.resumedCh
	c.resumedCh = nil
	conn := c.conn
	chans := make([]*Channel, 0, len(c.channels))
	for _, ch := range c.channels {
		chans = append(chans, ch)
	}
	c.channels = map[uint16]*Channel{}
	notify := c.notifyCls
	c.notifyCls = nil
	c.mu.Unlock()

	if resumed != nil {
		close(resumed) // release waiters; they see closed
	}
	close(c.hbStop)
	conn.Close()
	for _, ch := range chans {
		ch.shutdown(err, nil)
	}
	notifyClosed(notify, err)
	close(c.done)
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

// dispatchFrame routes one inbound frame to its channel. It reports
// whether the connection must stop, with the exception to surface.
func (c *Connection) dispatchFrame(f wire.Frame) (stop bool, e *Error) {
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
					// target there before surfacing the stop — the owner
					// turns a 302 into a reconnect to the new address.
					c.setTarget(cl.ReplyText)
					redirectsFollowed.Inc()
				}
				c.writeMethod(0, &wire.ConnectionCloseOk{})
				return true, &Error{Code: cl.ReplyCode, Reason: cl.ReplyText}
			}
			return false, nil
		}
		if ch != nil {
			ch.onMethod(m)
		}
	case wire.FrameHeader:
		if ch := c.channelByID(f.Channel); ch != nil {
			// A header that fails to decode has already scribbled on the
			// slot an assembly in progress points into: stop, as for a method.
			h, err := c.dec.Header(f.Payload, &ch.slots)
			if err != nil {
				return true, &Error{Code: wire.ReplySyntaxError, Reason: err.Error()}
			}
			e = ch.onHeader(h)
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

// admit waits out a suspension and returns the generation of the live
// transport, which an application's synchronous call is then written
// against (writeMethodGen), or ErrClosed.
func (c *Connection) admit() (chan struct{}, error) {
	for {
		c.mu.Lock()
		closed, wait, gen := c.closed, c.resumedCh, c.genCh
		c.mu.Unlock()
		switch {
		case closed:
			return nil, ErrClosed
		case wait == nil:
			return gen, nil
		}
		<-wait // parks on the outage's resumed channel, not a poll
	}
}

// awaitResume blocks while the connection is suspended, reporting true
// once it is live again and false once it is closed for good.
func (c *Connection) awaitResume() bool {
	_, err := c.admit()
	return err == nil
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
// a lone publish is not held back. A write error is the owner's to see.
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

// writeHeartbeat sends a heartbeat frame unless the transport is down.
func (c *Connection) writeHeartbeat() {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.AppendRawFrame(wire.FrameHeartbeat, 0, nil)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if !c.down {
		c.sendLocked(w, 1, true)
	}
}

// writeMethod is the owner's write of a protocol reply (close-ok): it
// waits for no gate, since the owner is what opens them.
func (c *Connection) writeMethod(channel uint16, m wire.Method) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.writeMethodLocked(channel, m)
}

func (c *Connection) writeMethodLocked(channel uint16, m wire.Method) error {
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
// reconnecting connection close the socket, so the owner sees the loss
// too, and surface as errSuspended; marshal errors stay as-is — they are
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
	ok := c.genCh == gen
	c.mu.Unlock()
	if !ok {
		return errSuspended
	}
	if err = c.sendLocked(w, 1, true); err != nil && c.reconnectEnabled() {
		c.conn.Close()
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
// basic.reject — encoded from the method scratch under writeMu, while the
// transport epoch of its deliveries is live and ch's gate is not held:
// after a transport loss the broker requeues the deliveries those tags
// named, so stale resolutions are dropped rather than misapplied to new
// deliveries.
func (c *Connection) writeSettle(ch *Channel, epoch uint64, kind settleKind, tag uint64, multiple, requeue bool) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if ch.gate != nil || epoch != c.epoch {
		staleAcksDropped.Inc()
		return nil
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
	return c.writeMethodLocked(ch.id, m)
}

// encodePublishLocked frames a publish into a pooled writer the caller
// recycles; the caller holds writeMu, since the method encodes from the
// scratch. A body under sendBufMax is copied in, to share a write with
// the publishes around it: on a tls.Conn or a wrapped socket the write
// would copy it anyway (wire's gathered writes), and a borrow costs a
// write of its own. From sendBufMax up the body is borrowed
// (wire.AppendContentFramesZC), and sendLocked flushes a borrow inline,
// so the caller's slice is read before Publish returns and not after —
// the rule the broker's delivery path lives by.
func (c *Connection) encodePublishLocked(channel uint16, p *pendingPublish) (*wire.Writer, int, error) {
	c.pub = wire.BasicPublish{
		Exchange: p.exchange, RoutingKey: p.key, Mandatory: p.mandatory, Immediate: p.immediate,
	}
	props := p.msg.properties()
	w := wire.GetWriter()
	var frames int
	if len(p.msg.Body) < sendBufMax {
		frames = w.AppendContentFrames(channel, &c.pub, &props, p.msg.Body, c.frameMax.Load())
	} else {
		frames = w.AppendContentFramesZC(channel, &c.pub, &props, p.msg.Body, c.frameMax.Load())
	}
	if err := w.Err(); err != nil {
		wire.PutWriter(w)
		return nil, 0, err
	}
	return w, frames, nil
}

// lockOpen takes writeMu for an application write on ch, first waiting
// for ch's gate: after a transport loss nothing may reach the channel
// before its replay has re-opened it.
func (c *Connection) lockOpen(ch *Channel) error {
	c.writeMu.Lock()
	for ch.gate != nil {
		gate := ch.gate
		c.writeMu.Unlock()
		<-gate
		if ch.isClosed() {
			return ErrClosed
		}
		c.writeMu.Lock()
	}
	return nil
}

// writeContent sends a publish's method+header+body frames as one unit,
// atomic with respect to other writers on this connection. A body under
// sendBufMax shares the scheduled flush with the publishes around it
// (sendLocked); a larger one is written before this returns, and what
// that costs per destination kind is wire.FlushFrames' decision. In
// confirm mode the channel's log tags the publish here, under writeMu, so
// tags follow wire order. A publish the log keeps reports success on a
// dead socket: the replay resends it. Marshal errors are permanent and
// reach no log.
func (c *Connection) writeContent(ch *Channel, p *pendingPublish) error {
	if err := c.lockOpen(ch); err != nil {
		return err
	}
	defer c.writeMu.Unlock()
	w, frames, err := c.encodePublishLocked(ch.id, p)
	if err != nil {
		return err
	}
	defer wire.PutWriter(w)
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return ErrClosed
	}
	kept := ch.subs.confirm && ch.log.append(p) != 0 && ch.log.keep
	ch.mu.Unlock()
	if err = c.sendLocked(w, frames, false); kept {
		return nil
	}
	return err
}
