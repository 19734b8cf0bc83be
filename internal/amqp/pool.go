package amqp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ds2hpc/internal/telemetry"
)

// Pool-wide runtime-cost gauges, exported through telemetry.Default so
// `-watch` and /snapshot.json show how many logical clients are mapped
// onto how many physical sockets during a scale run.
var (
	poolSessions atomic.Int64
	poolConns    atomic.Int64
)

func init() {
	telemetry.Default.GaugeFunc("client_sessions", poolSessions.Load)
	telemetry.Default.GaugeFunc("client_conns", poolConns.Load)
}

// PoolSessions reports the number of open pool sessions process-wide.
func PoolSessions() int64 { return poolSessions.Load() }

// PoolConns reports the number of live pooled connections process-wide.
func PoolConns() int64 { return poolConns.Load() }

// ErrPoolClosed reports a session request against a closed pool.
var ErrPoolClosed = errors.New("amqp: client pool closed")

// PoolConfig shapes a ClientPool.
type PoolConfig struct {
	// URL is the broker URI every pooled connection dials.
	URL string
	// Config is the per-connection configuration (dialer, TLS, reconnect
	// policy). All pooled connections share it.
	Config Config
	// SessionsPerConn is the soft fan-out target: the pool prefers
	// growing a new physical connection once every existing one carries
	// this many sessions. Zero means "pack to the negotiated channel
	// limit". The negotiated ChannelMax is always the hard per-connection
	// cap; when growth is refused (MaxConns or DialGate) the pool packs
	// past the soft target up to that cap.
	SessionsPerConn int
	// MaxConns caps the number of physical connections; zero = unbounded.
	MaxConns int
	// DialGate, when non-nil, is consulted before the pool dials a new
	// physical connection beyond the first. Returning false makes the
	// pool keep packing sessions onto existing connections instead —
	// this is how the pattern engine enforces a global goroutine budget
	// across several per-endpoint pools.
	DialGate func() bool
}

// ClientPool multiplexes many lightweight logical clients over a small
// set of physical AMQP connections. Each Session is an ordinary channel
// on one of the pooled connections: opening one costs a channel.open
// round-trip and a map entry, not a socket, a reader goroutine, or a
// writer goroutine. Delivery dispatch stays on the owning connection's
// single read loop (use ConsumeFunc for goroutine-free consumers), so a
// pool carrying 100k idle sessions runs on ~⌈100k/ChannelMax⌉ goroutines.
type ClientPool struct {
	cfg PoolConfig

	mu     sync.Mutex
	conns  []*poolConn
	closed bool
}

// poolConn is one physical connection and its session count.
type poolConn struct {
	conn     *Connection
	sessions int
}

// NewClientPool creates an empty pool; connections are dialed lazily as
// sessions are requested.
func NewClientPool(cfg PoolConfig) *ClientPool {
	return &ClientPool{cfg: cfg}
}

// Session opens a logical client: a channel on the least-loaded pooled
// connection, dialing a new connection when the fan-out policy asks for
// one. The returned Session is used exactly like a Channel; Close
// releases only the channel, never the shared connection.
func (p *ClientPool) Session() (*Session, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		pc, err := p.placeLocked()
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		pc.sessions++
		p.mu.Unlock()

		ch, err := pc.conn.Channel()
		if err != nil {
			p.mu.Lock()
			pc.sessions--
			p.mu.Unlock()
			if errors.Is(err, ErrChannelMax) || errors.Is(err, ErrClosed) {
				// The chosen connection filled up (or died) between
				// placement and open; re-place on another one.
				continue
			}
			return nil, err
		}
		poolSessions.Add(1)
		return &Session{Channel: ch, pool: p, pc: pc}, nil
	}
}

// placeLocked picks (or dials) the connection for one new session. The
// caller holds p.mu.
func (p *ClientPool) placeLocked() (*poolConn, error) {
	// Prune connections that died without a reconnect policy (or whose
	// reconnect budget ran out): their sessions are gone and new ones
	// must not land there.
	live := p.conns[:0]
	for _, pc := range p.conns {
		if pc.conn.IsClosed() {
			poolConns.Add(-1)
			poolSessions.Add(-int64(pc.sessions))
			continue
		}
		live = append(live, pc)
	}
	p.conns = live

	var best *poolConn
	for _, pc := range p.conns {
		if pc.sessions >= p.connCap(pc) {
			continue
		}
		if best == nil || pc.sessions < best.sessions {
			best = pc
		}
	}
	soft := p.cfg.SessionsPerConn
	needGrow := best == nil || (soft > 0 && best.sessions >= soft)
	if needGrow && p.mayGrowLocked() {
		conn, err := DialConfig(p.cfg.URL, p.cfg.Config)
		if err != nil {
			if best != nil {
				return best, nil // fall back to packing
			}
			return nil, err
		}
		pc := &poolConn{conn: conn}
		p.conns = append(p.conns, pc)
		poolConns.Add(1)
		return pc, nil
	}
	if best == nil {
		return nil, fmt.Errorf("amqp: client pool exhausted: %d connections at their channel limit and growth refused (MaxConns/DialGate)", len(p.conns))
	}
	return best, nil
}

// connCap is the hard session capacity of one connection: the channel-id
// space negotiated at handshake.
func (p *ClientPool) connCap(pc *poolConn) int {
	if m := pc.conn.ChannelMax(); m > 0 {
		return m
	}
	return 65535
}

// mayGrowLocked reports whether policy allows dialing another connection.
func (p *ClientPool) mayGrowLocked() bool {
	if p.cfg.MaxConns > 0 && len(p.conns) >= p.cfg.MaxConns {
		return false
	}
	if len(p.conns) > 0 && p.cfg.DialGate != nil && !p.cfg.DialGate() {
		return false
	}
	return true
}

// release returns one session slot to pc.
func (p *ClientPool) release(pc *poolConn) {
	p.mu.Lock()
	if pc.sessions > 0 {
		pc.sessions--
	}
	p.mu.Unlock()
	poolSessions.Add(-1)
}

// Stats reports the pool's live connection and session counts.
func (p *ClientPool) Stats() (conns, sessions int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pc := range p.conns {
		if pc.conn.IsClosed() {
			continue
		}
		conns++
		sessions += pc.sessions
	}
	return conns, sessions
}

// Close shuts down every pooled connection (and with them all sessions).
func (p *ClientPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = nil
	for _, pc := range conns {
		// Under p.mu: a Session call placed before Close may still be
		// opening its channel and will give its slot back.
		poolSessions.Add(-int64(pc.sessions))
	}
	p.mu.Unlock()
	var firstErr error
	for _, pc := range conns {
		if err := pc.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		poolConns.Add(-1)
	}
	return firstErr
}

// Session is one logical client: a Channel plus its place in the pool.
// All Channel methods apply; Close releases the channel back to the
// pool's accounting without touching the shared physical connection.
type Session struct {
	*Channel
	pool *ClientPool
	pc   *poolConn
	once sync.Once
}

// Sibling opens another session multiplexed onto the same physical
// connection, for channels that must observe the same transport (e.g. a
// closed-loop producer's reply consumer living next to its publish
// channel). It counts against the connection's channel capacity.
func (s *Session) Sibling() (*Session, error) {
	ch, err := s.Channel.conn.Channel()
	if err != nil {
		return nil, err
	}
	s.pool.mu.Lock()
	s.pc.sessions++
	s.pool.mu.Unlock()
	poolSessions.Add(1)
	return &Session{Channel: ch, pool: s.pool, pc: s.pc}, nil
}

// Close closes the session's channel and releases its pool slot. Safe to
// call more than once; the physical connection stays up for siblings.
func (s *Session) Close() error {
	var err error
	s.once.Do(func() {
		err = s.Channel.Close()
		s.pool.release(s.pc)
	})
	return err
}
