package scistream

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/netem"
	"ds2hpc/internal/tlsutil"
)

// ControlRequest is the JSON message S2UC sends to an S2CS instance. It
// corresponds to the `s2uc inbound-request` / `s2uc outbound-request`
// commands shown in the paper's §4.4 deployment. A control connection
// carries a stream of requests, and the S2CS answers each with one
// ControlResponse, in request order.
type ControlRequest struct {
	// Type is "inbound" (consumer side: expose a WAN proxy in front of
	// the streaming service) or "outbound" (producer side: expose a local
	// proxy that tunnels to the remote WAN proxy).
	Type string `json:"type"`
	// UID identifies the session; assigned by the inbound request and
	// echoed by the outbound request.
	UID string `json:"uid,omitempty"`
	// Tunnel selects the driver ("stunnel" or "haproxy").
	Tunnel string `json:"tunnel"`
	// NumConn is the number of parallel tunnel connections.
	NumConn int `json:"num_conn"`
	// ReceiverPorts are the streaming-service endpoints (inbound) —
	// the paper's --receiver_ports option.
	ReceiverPorts []string `json:"receiver_ports,omitempty"`
	// RemoteProxy is the WAN address of the inbound proxy (outbound).
	RemoteProxy string `json:"remote_proxy,omitempty"`
}

// ControlResponse reports the created proxy endpoint.
type ControlResponse struct {
	UID       string `json:"uid"`
	ProxyAddr string `json:"proxy_addr"`
	Err       string `json:"err,omitempty"`
}

// S2CSConfig configures a control server for one facility side.
type S2CSConfig struct {
	// Addr is the control listen address.
	Addr string
	// Identity is the facility's certificate: it secures the control
	// channel and is reused as the tunnel mTLS identity, mirroring the
	// self-signed certificate the S2CS container generates on startup.
	Identity *tlsutil.Identity
	// TunnelIdentity, if set, overrides the identity used on the data
	// tunnel (both sides must share a trust root).
	TunnelIdentity *tlsutil.Identity
	// ServerName for outbound tunnel verification.
	ServerName string
	// WANLink shapes the overlay tunnel.
	WANLink *netem.Link
	// ClientLink shapes the facility-internal hop to applications.
	ClientLink *netem.Link
	// ProcLink models per-proxy processing capacity.
	ProcLink *netem.Link
	// TunnelFlowRate caps this relay's aggregate Stunnel flow (bps);
	// one shared link models the single stunnel process's throughput.
	TunnelFlowRate int64
	// DialTarget dials the streaming service from the inbound proxy.
	DialTarget DialFunc
}

// Control-connection bounds.
const (
	// controlIdle is how long a control connection may wait for its next
	// request before the S2CS stops reading it.
	controlIdle = 30 * time.Second
	// controlInflight bounds the requests one control connection has
	// being handled or awaiting their response's turn; the S2CS reads no
	// further request until one of them is answered.
	controlInflight = 16
)

// S2CS is a running control server. One instance runs on each facility's
// gateway node in the paper's deployment (PS2CS and CS2CS pods).
type S2CS struct {
	cfg      S2CSConfig
	ln       net.Listener
	flowLink *netem.Link // shared across all stunnel tunnels
	done     chan struct{}
	serving  sync.WaitGroup // accept loop and control connections
	accepted atomic.Uint64

	mu        sync.Mutex
	inbounds  map[string]*Inbound
	outbounds map[string]*Outbound
	conns     map[net.Conn]struct{}
	nextUID   int
	closed    bool
}

// NewS2CS starts a control server.
func NewS2CS(cfg S2CSConfig) (*S2CS, error) {
	if cfg.Identity == nil {
		return nil, fmt.Errorf("scistream: S2CS needs a TLS identity")
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := tls.Listen("tcp", addr, cfg.Identity.ServerConfig())
	if err != nil {
		return nil, err
	}
	s := &S2CS{
		cfg:       cfg,
		ln:        ln,
		done:      make(chan struct{}),
		inbounds:  map[string]*Inbound{},
		outbounds: map[string]*Outbound{},
		conns:     map[net.Conn]struct{}{},
	}
	if cfg.TunnelFlowRate > 0 {
		s.flowLink = netem.NewLink("stunnel-flow", cfg.TunnelFlowRate, 0)
	}
	s.serving.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr is the control endpoint address.
func (s *S2CS) Addr() string { return s.ln.Addr().String() }

// Close stops the control server and all proxies it launched. It closes
// open control connections and returns once their goroutines have exited;
// a request still being handled closes its own proxy when it finishes.
func (s *S2CS) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ins := s.inbounds
	outs := s.outbounds
	conns := s.conns
	s.inbounds = map[string]*Inbound{}
	s.outbounds = map[string]*Outbound{}
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
	for _, in := range ins {
		in.Close()
	}
	for _, o := range outs {
		o.Close()
	}
	err := s.ln.Close()
	for c := range conns {
		c.Close()
	}
	s.serving.Wait()
	return err
}

// Outbound returns the outbound proxy for a session UID (for tests/metrics).
func (s *S2CS) Outbound(uid string) (*Outbound, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outbounds[uid]
	return o, ok
}

// ControlConns reports total accepted control connections.
func (s *S2CS) ControlConns() uint64 { return s.accepted.Load() }

func (s *S2CS) acceptLoop() {
	defer s.serving.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.accepted.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.serving.Add(1)
		s.mu.Unlock()
		go s.serve(c)
	}
}

// serve answers the requests on one control connection. Each request is
// handled on its own goroutine, so a client that pipelines a batch has it
// handled concurrently, and a second goroutine writes the responses in
// request order. At most controlInflight requests are outstanding; the
// connection ends when the client closes it, sends a request that does not
// decode, or sends nothing for controlIdle, and in every case the requests
// already read are still answered.
func (s *S2CS) serve(c net.Conn) {
	defer s.serving.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	// The writer holds one response channel out of pending while it waits,
	// so pending's capacity plus that one is the in-flight bound.
	pending := make(chan chan *ControlResponse, controlInflight-1)
	written := make(chan struct{})
	go s.writeResponses(c, pending, written)
	dec := json.NewDecoder(c)
	for {
		c.SetReadDeadline(time.Now().Add(controlIdle))
		req := new(ControlRequest)
		if err := dec.Decode(req); err != nil {
			break
		}
		resp := make(chan *ControlResponse, 1)
		pending <- resp
		go func() { resp <- s.handle(req) }()
	}
	close(pending)
	<-written
}

// writeResponses writes each pending response once its handler delivers
// it and closes written when pending is drained. After a write error or
// Close it stops writing but keeps draining, so the reader never blocks on
// a full pending queue.
func (s *S2CS) writeResponses(c net.Conn, pending <-chan chan *ControlResponse, written chan<- struct{}) {
	defer close(written)
	enc := json.NewEncoder(c)
	ok := true
	for resp := range pending {
		select {
		case r := <-resp:
			ok = ok && enc.Encode(r) == nil
		case <-s.done:
			ok = false
		}
	}
}

func (s *S2CS) handle(req *ControlRequest) *ControlResponse {
	switch req.Type {
	case "inbound":
		return s.handleInbound(req)
	case "outbound":
		return s.handleOutbound(req)
	default:
		return &ControlResponse{Err: fmt.Sprintf("unknown request type %q", req.Type)}
	}
}

func (s *S2CS) tunnelIdentity() *tlsutil.Identity {
	if s.cfg.TunnelIdentity != nil {
		return s.cfg.TunnelIdentity
	}
	return s.cfg.Identity
}

func (s *S2CS) handleInbound(req *ControlRequest) *ControlResponse {
	if len(req.ReceiverPorts) == 0 {
		return &ControlResponse{Err: "inbound request needs receiver_ports"}
	}
	in, err := NewInbound(InboundConfig{
		Targets:    req.ReceiverPorts,
		Tunnel:     Tunnel(req.Tunnel),
		Identity:   s.tunnelIdentity(),
		WANLink:    s.cfg.WANLink,
		ProcLink:   s.cfg.ProcLink,
		FlowLink:   s.flowLink,
		DialTarget: s.cfg.DialTarget,
	})
	if err != nil {
		return &ControlResponse{Err: err.Error()}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		in.Close()
		return &ControlResponse{Err: "control server closed"}
	}
	s.nextUID++
	uid := fmt.Sprintf("s2-session-%d", s.nextUID)
	s.inbounds[uid] = in
	s.mu.Unlock()
	return &ControlResponse{UID: uid, ProxyAddr: in.Addr()}
}

func (s *S2CS) handleOutbound(req *ControlRequest) *ControlResponse {
	if req.RemoteProxy == "" {
		return &ControlResponse{Err: "outbound request needs remote_proxy"}
	}
	dialWAN := DialFunc(net.Dial)
	if s.cfg.WANLink != nil {
		d := &netem.Dialer{Link: s.cfg.WANLink}
		dialWAN = d.Dial
	}
	out, err := NewOutbound(OutboundConfig{
		RemoteProxy: req.RemoteProxy,
		Tunnel:      Tunnel(req.Tunnel),
		NumConns:    req.NumConn,
		Identity:    s.tunnelIdentity(),
		ServerName:  s.cfg.ServerName,
		ClientLink:  s.cfg.ClientLink,
		ProcLink:    s.cfg.ProcLink,
		FlowLink:    s.flowLink,
		DialWAN:     dialWAN,
	})
	if err != nil {
		return &ControlResponse{Err: err.Error()}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		out.Close()
		return &ControlResponse{Err: "control server closed"}
	}
	uid := req.UID
	if uid == "" {
		s.nextUID++
		uid = fmt.Sprintf("s2-session-%d", s.nextUID)
	}
	s.outbounds[uid] = out
	s.mu.Unlock()
	return &ControlResponse{UID: uid, ProxyAddr: out.Addr()}
}
