package mss

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/netem"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/transport"
)

// tierMSS tags LB and ingress relay bytes so the MSS path exports as
// transport.relay_tier_bytes{tier=mss}.
var tierMSS = telemetry.Intern("tier=mss")

// LBConfig configures the facility load balancer.
type LBConfig struct {
	// Addr is the public listen address (the FQDN's A record, port 443
	// in the paper).
	Addr string
	// Identity terminates client TLS for every hosted FQDN.
	Identity *tlsutil.Identity
	// IngressAddr is the downstream ingress controller.
	IngressAddr string
	// Workers bounds concurrent connection setups (TLS termination plus
	// route preamble). Queueing here is a major source of MSS latency at
	// high consumer counts.
	Workers int
	// SetupCost models per-connection processing (policy checks, route
	// admission) beyond the TLS handshake itself.
	SetupCost time.Duration
	// ProcLink models the LB's shared forwarding capacity.
	ProcLink *netem.Link
	// ClientLink shapes bytes written back to clients.
	ClientLink *netem.Link
	// DialIngress dials the ingress (default plain TCP).
	DialIngress func(network, addr string) (net.Conn, error)
}

// LoadBalancer is the MSS entry point: it terminates TLS, captures the SNI
// hostname the client asked for, and relays the plaintext stream to the
// ingress with a one-line routing preamble. Connection setup runs through a
// transport.Admission gate (workers + per-connection setup cost).
type LoadBalancer struct {
	cfg       LBConfig
	ln        net.Listener
	admission *transport.Admission

	relayed atomic.Uint64 // connections relayed

	closeOnce sync.Once
	closed    chan struct{}
}

// NewLoadBalancer starts the LB.
func NewLoadBalancer(cfg LBConfig) (*LoadBalancer, error) {
	if cfg.Identity == nil {
		return nil, fmt.Errorf("mss: load balancer needs a TLS identity")
	}
	if cfg.IngressAddr == "" {
		return nil, fmt.Errorf("mss: load balancer needs an ingress address")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.DialIngress == nil {
		cfg.DialIngress = net.Dial
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	base := cfg.Identity.ServerConfig()
	lb := &LoadBalancer{
		cfg:       cfg,
		admission: transport.NewAdmission(cfg.Workers, cfg.SetupCost),
		closed:    make(chan struct{}),
	}
	// Capture SNI per connection via GetConfigForClient.
	tcfg := &tls.Config{
		GetConfigForClient: func(chi *tls.ClientHelloInfo) (*tls.Config, error) {
			return base, nil
		},
		Certificates: base.Certificates,
	}
	ln, err := tls.Listen("tcp", addr, tcfg)
	if err != nil {
		return nil, err
	}
	lb.ln = ln
	go lb.acceptLoop()
	return lb, nil
}

// Addr is the public address clients dial.
func (lb *LoadBalancer) Addr() string { return lb.ln.Addr().String() }

// Close stops the LB.
func (lb *LoadBalancer) Close() error {
	lb.closeOnce.Do(func() { close(lb.closed) })
	return lb.ln.Close()
}

func (lb *LoadBalancer) acceptLoop() {
	for {
		c, err := lb.ln.Accept()
		if err != nil {
			return
		}
		go lb.handle(c)
	}
}

func (lb *LoadBalancer) handle(raw net.Conn) {
	// Setup (TLS termination + admission) runs under the bounded worker
	// pool; established flows are not capped.
	if err := lb.admission.Acquire(lb.closed); err != nil {
		raw.Close()
		return
	}
	tc := raw.(*tls.Conn)
	if err := tc.Handshake(); err != nil {
		lb.admission.Release()
		raw.Close()
		return
	}
	sni := tc.ConnectionState().ServerName
	lb.admission.Setup()
	backend, err := lb.cfg.DialIngress("tcp", lb.cfg.IngressAddr)
	lb.admission.Release() // setup finished; free the worker
	if err != nil {
		raw.Close()
		return
	}
	// Routing preamble tells the ingress which FQDN the client targeted.
	if _, err := fmt.Fprintf(backend, "%s\n", sni); err != nil {
		raw.Close()
		backend.Close()
		return
	}

	var client net.Conn = tc
	if lb.cfg.ClientLink != nil {
		client = netem.Wrap(client, lb.cfg.ClientLink)
	}
	if lb.cfg.ProcLink != nil {
		client = netem.Wrap(client, lb.cfg.ProcLink)
		backend = netem.Wrap(backend, lb.cfg.ProcLink)
	}
	lb.relayed.Add(1)
	transport.RelayCtx(client, backend, tierMSS)
}

// Ingress is the OpenShift-style ingress hop: it reads the routing preamble
// written by the LB, resolves the FQDN through the route controller, and
// relays to the selected broker pod.
type Ingress struct {
	routes   *RouteController
	ln       net.Listener
	procLink *netem.Link
	dial     func(network, addr string) (net.Conn, error)
}

// IngressConfig configures the ingress hop.
type IngressConfig struct {
	Addr     string
	Routes   *RouteController
	ProcLink *netem.Link
	// DialBackend dials broker pods (default plain TCP).
	DialBackend func(network, addr string) (net.Conn, error)
}

// NewIngress starts the ingress controller.
func NewIngress(cfg IngressConfig) (*Ingress, error) {
	if cfg.Routes == nil {
		return nil, fmt.Errorf("mss: ingress needs a route controller")
	}
	if cfg.DialBackend == nil {
		cfg.DialBackend = net.Dial
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ing := &Ingress{routes: cfg.Routes, ln: ln, procLink: cfg.ProcLink, dial: cfg.DialBackend}
	go ing.acceptLoop()
	return ing, nil
}

// Addr is the ingress listen address (given to the LB).
func (ing *Ingress) Addr() string { return ing.ln.Addr().String() }

// Close stops the ingress.
func (ing *Ingress) Close() error { return ing.ln.Close() }

func (ing *Ingress) acceptLoop() {
	for {
		c, err := ing.ln.Accept()
		if err != nil {
			return
		}
		go ing.handle(c)
	}
}

func (ing *Ingress) handle(up net.Conn) {
	br := bufio.NewReader(up)
	fqdn, err := br.ReadString('\n')
	if err != nil {
		up.Close()
		return
	}
	fqdn = fqdn[:len(fqdn)-1]
	backendAddr, err := ing.routes.Resolve(fqdn)
	if err != nil {
		up.Close()
		return
	}
	backend, err := ing.dial("tcp", backendAddr)
	if err != nil {
		up.Close()
		return
	}
	var upConn net.Conn = &bufferedConn{Conn: up, r: br}
	if ing.procLink != nil {
		upConn = netem.Wrap(upConn, ing.procLink)
		backend = netem.Wrap(backend, ing.procLink)
	}
	transport.RelayCtx(upConn, backend, tierMSS)
}

// bufferedConn lets the ingress hand off bytes already buffered while
// reading the preamble.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (bc *bufferedConn) Read(p []byte) (int, error) { return bc.r.Read(p) }

// Unwrap exposes the underlying connection so half-close propagates
// through the preamble buffer.
func (bc *bufferedConn) Unwrap() net.Conn { return bc.Conn }
