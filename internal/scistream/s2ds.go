package scistream

import (
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ds2hpc/internal/netem"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/transport"
)

// tierPRS tags every S2DS relay's byte series so PRS proxy throughput
// exports as transport.relay_tier_bytes{tier=prs}.
var tierPRS = telemetry.Intern("tier=prs")

// Tunnel selects the overlay tunnel driver.
type Tunnel string

// Tunnel drivers evaluated in the paper (§4.4, §5.3).
const (
	TunnelStunnel Tunnel = "stunnel"
	TunnelHAProxy Tunnel = "haproxy"
)

// StunnelMaxStreams is the concurrent-connection ceiling observed for the
// Stunnel configuration in the paper ("a maximum of 16 simultaneous
// connections in our setup").
const StunnelMaxStreams = 16

// DialFunc dials a transport connection.
type DialFunc = transport.DialFunc

// ---------------------------------------------------------------- inbound

// InboundConfig configures the WAN-facing (consumer-side) S2DS proxy that
// terminates the overlay tunnel and forwards to the streaming service.
type InboundConfig struct {
	// WANAddr is the listen address exposed over the WAN ("0" port ok).
	WANAddr string
	// Targets are the streaming-service endpoints, used round-robin.
	Targets []string
	// Tunnel selects the driver; it must match the outbound side.
	Tunnel Tunnel
	// Identity provides the proxy certificate for mTLS on the tunnel.
	Identity *tlsutil.Identity
	// MaxStreams caps concurrent relayed connections (Stunnel limit).
	MaxStreams int
	// WANLink shapes bytes written back toward the WAN.
	WANLink *netem.Link
	// ProcLink models the proxy's processing capacity; all relayed
	// traffic through this S2DS contends for it. This is the mechanism
	// behind PRS's throughput plateau at higher consumer counts.
	ProcLink *netem.Link
	// FlowLink, for the Stunnel driver, caps the relay's long-lived TLS
	// flows at a single flow's bandwidth. The link is shared across all
	// tunnels the S2CS launches (stunnel is a single process), which
	// keeps Stunnel throughput flat as consumers scale (§5.3).
	FlowLink *netem.Link
	// DialTarget dials the streaming service (default: plain TCP).
	DialTarget DialFunc
}

// Inbound is a running consumer-side S2DS.
type Inbound struct {
	cfg      InboundConfig
	ln       net.Listener
	next     atomic.Uint32
	relayed  atomic.Uint64 // connections relayed
	closed   chan struct{}
	closeOne sync.Once
}

// NewInbound starts the WAN-facing proxy.
func NewInbound(cfg InboundConfig) (*Inbound, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("scistream: inbound proxy needs at least one target")
	}
	if cfg.Identity == nil {
		return nil, fmt.Errorf("scistream: inbound proxy needs a TLS identity")
	}
	if cfg.DialTarget == nil {
		cfg.DialTarget = net.Dial
	}
	if cfg.Tunnel == TunnelStunnel && cfg.MaxStreams == 0 {
		cfg.MaxStreams = StunnelMaxStreams
	}
	addr := cfg.WANAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := tls.Listen("tcp", addr, cfg.Identity.MutualServerConfig())
	if err != nil {
		return nil, err
	}
	in := &Inbound{cfg: cfg, ln: ln, closed: make(chan struct{})}
	go in.acceptLoop()
	return in, nil
}

// Addr is the WAN-facing address of the proxy.
func (in *Inbound) Addr() string { return in.ln.Addr().String() }

// Close stops the proxy.
func (in *Inbound) Close() error {
	in.closeOne.Do(func() { close(in.closed) })
	return in.ln.Close()
}

func (in *Inbound) acceptLoop() {
	for {
		c, err := in.ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			// Complete the mTLS handshake before relaying so untrusted
			// peers are rejected up front.
			if tc, ok := c.(*tls.Conn); ok {
				if err := tc.Handshake(); err != nil {
					c.Close()
					return
				}
			}
			if in.cfg.WANLink != nil {
				c = netem.Wrap(c, in.cfg.WANLink)
			}
			switch in.cfg.Tunnel {
			case TunnelStunnel:
				if in.cfg.FlowLink != nil {
					c = netem.Wrap(c, in.cfg.FlowLink)
				}
				in.serveMux(c)
			default:
				in.serveDirect(c)
			}
		}(c)
	}
}

// serveMux handles one long-lived tunnel connection carrying many streams.
func (in *Inbound) serveMux(c net.Conn) {
	m := NewMux(c, true, in.cfg.MaxStreams)
	defer m.Close()
	for {
		stream, err := m.Accept()
		if err != nil {
			return
		}
		go in.forward(stream)
	}
}

// serveDirect handles one per-connection tunnel (HAProxy driver).
func (in *Inbound) serveDirect(c net.Conn) {
	in.forward(c)
}

func (in *Inbound) forward(client net.Conn) {
	defer client.Close()
	target := in.cfg.Targets[int(in.next.Add(1)-1)%len(in.cfg.Targets)]
	backend, err := in.cfg.DialTarget("tcp", target)
	if err != nil {
		return
	}
	if in.cfg.ProcLink != nil {
		backend = netem.Wrap(backend, in.cfg.ProcLink)
		client = netem.Wrap(client, in.cfg.ProcLink)
	}
	in.relayed.Add(1)
	transport.RelayCtx(client, backend, tierPRS)
}

// ---------------------------------------------------------------- outbound

// OutboundConfig configures the client-facing (producer-side) S2DS proxy
// that accepts application connections and tunnels them across the WAN.
type OutboundConfig struct {
	// ListenAddr is where applications connect ("0" port ok).
	ListenAddr string
	// RemoteProxy is the WAN address of the peer (inbound) S2DS.
	RemoteProxy string
	// Tunnel selects the driver; must match the inbound side.
	Tunnel Tunnel
	// NumConns is the number of parallel WAN connections (the SciStream
	// --num_conn option). For Stunnel it is the number of shared mux'd
	// flows; for HAProxy it pre-warms a connection pool.
	NumConns int
	// Identity authenticates to the inbound proxy over mTLS.
	Identity *tlsutil.Identity
	// ServerName must match the inbound proxy certificate.
	ServerName string
	// MaxStreams caps concurrent streams (Stunnel limit).
	MaxStreams int
	// ClientLink shapes bytes written back to applications (the
	// facility-internal hop, e.g. Andes to DSN).
	ClientLink *netem.Link
	// DialWAN dials the WAN (typically shaped by the WAN link).
	DialWAN DialFunc
	// ProcLink models this proxy's processing capacity.
	ProcLink *netem.Link
	// FlowLink caps the shared Stunnel tunnels at one flow's rate.
	FlowLink *netem.Link
}

// Outbound is a running producer-side S2DS.
type Outbound struct {
	cfg OutboundConfig
	ln  net.Listener

	mu     sync.Mutex
	muxes  []*Mux // stunnel: shared long-lived tunnels
	pool   []net.Conn
	next   int
	closed bool
}

// NewOutbound starts the client-facing proxy.
func NewOutbound(cfg OutboundConfig) (*Outbound, error) {
	if cfg.RemoteProxy == "" {
		return nil, fmt.Errorf("scistream: outbound proxy needs a remote proxy address")
	}
	if cfg.Identity == nil {
		return nil, fmt.Errorf("scistream: outbound proxy needs a TLS identity")
	}
	if cfg.DialWAN == nil {
		cfg.DialWAN = net.Dial
	}
	if cfg.NumConns <= 0 {
		cfg.NumConns = 1
	}
	if cfg.Tunnel == TunnelStunnel && cfg.MaxStreams == 0 {
		cfg.MaxStreams = StunnelMaxStreams
	}
	if cfg.ServerName == "" {
		cfg.ServerName = "127.0.0.1"
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	o := &Outbound{cfg: cfg, ln: ln}
	if cfg.Tunnel == TunnelHAProxy {
		// Pre-warm the pool (handshakes paid up front). Extra pooled
		// connections give no throughput benefit — matching the paper's
		// "increasing proxy connections to four showed no significant
		// performance gain".
		for i := 0; i < cfg.NumConns; i++ {
			if c, err := o.dialTunnel(); err == nil {
				o.pool = append(o.pool, c)
			}
		}
	}
	go o.acceptLoop()
	return o, nil
}

// Addr is the application-facing address.
func (o *Outbound) Addr() string { return o.ln.Addr().String() }

// Idle reports pre-warmed tunnel connections not yet leased to a client.
func (o *Outbound) Idle() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pool)
}

// Close stops the proxy and its tunnels.
func (o *Outbound) Close() error {
	o.mu.Lock()
	o.closed = true
	muxes := o.muxes
	pool := o.pool
	o.muxes = nil
	o.pool = nil
	o.mu.Unlock()
	for _, m := range muxes {
		m.Close()
	}
	for _, c := range pool {
		c.Close()
	}
	return o.ln.Close()
}

func (o *Outbound) dialTunnel() (net.Conn, error) {
	raw, err := o.cfg.DialWAN("tcp", o.cfg.RemoteProxy)
	if err != nil {
		return nil, err
	}
	tc := tls.Client(raw, o.cfg.Identity.MutualClientConfig(o.cfg.ServerName))
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, err
	}
	return tc, nil
}

// tunnelStream obtains a stream over the overlay for one client connection.
func (o *Outbound) tunnelStream() (net.Conn, error) {
	switch o.cfg.Tunnel {
	case TunnelStunnel:
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.closed {
			return nil, net.ErrClosed
		}
		// Establish the shared tunnels lazily, up to NumConns.
		for len(o.muxes) < o.cfg.NumConns {
			c, err := o.dialTunnel()
			if err != nil {
				if len(o.muxes) == 0 {
					return nil, err
				}
				break
			}
			var tc net.Conn = c
			if o.cfg.FlowLink != nil {
				tc = netem.Wrap(tc, o.cfg.FlowLink)
			}
			o.muxes = append(o.muxes, NewMux(tc, false, o.cfg.MaxStreams))
		}
		// Round-robin across shared tunnels; total stream budget is the
		// Stunnel cap regardless of how many tunnels exist.
		total := 0
		for _, m := range o.muxes {
			total += m.NumStreams()
		}
		if o.cfg.MaxStreams > 0 && total >= o.cfg.MaxStreams {
			return nil, ErrTooManyStreams
		}
		m := o.muxes[o.next%len(o.muxes)]
		o.next++
		return m.Open()
	default: // HAProxy: dedicated connection per client, pool pre-warmed.
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return nil, net.ErrClosed
		}
		var c net.Conn
		if len(o.pool) > 0 {
			c = o.pool[0]
			o.pool = o.pool[1:]
		}
		o.mu.Unlock()
		if c != nil {
			return c, nil
		}
		return o.dialTunnel()
	}
}

func (o *Outbound) acceptLoop() {
	for {
		client, err := o.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			stream, err := o.tunnelStream()
			if err != nil {
				client.Close()
				return
			}
			if o.cfg.ClientLink != nil {
				client = netem.Wrap(client, o.cfg.ClientLink)
			}
			if o.cfg.ProcLink != nil {
				client = netem.Wrap(client, o.cfg.ProcLink)
				stream = netem.Wrap(stream, o.cfg.ProcLink)
			}
			transport.RelayCtx(client, stream, tierPRS)
		}()
	}
}
