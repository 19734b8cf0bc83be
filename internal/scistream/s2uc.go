package scistream

import (
	"bytes"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ds2hpc/internal/tlsutil"
)

// SessionRequest describes the streaming session the user client should
// broker between the two facilities' control servers.
type SessionRequest struct {
	// ProducerS2CS and ConsumerS2CS are the control endpoints of the two
	// facility gateway nodes.
	ProducerS2CS string
	ConsumerS2CS string
	// ProducerCert and ConsumerCert are the PEM server certificates used
	// to trust each control endpoint (`--server_cert` in the paper). Both
	// are required: the user client never sends an unauthenticated
	// control request.
	ProducerCert []byte
	ConsumerCert []byte
	// Targets are the streaming-service endpoints behind the consumer
	// side (`--receiver_ports`).
	Targets []string
	// Tunnel selects the overlay driver.
	Tunnel Tunnel
	// NumConn is the parallel-connection option (`--num_conn`).
	NumConn int
}

// Session is an established overlay: applications connect to ClientAddr and
// their bytes arrive at the streaming service through the tunnel.
type Session struct {
	UID string
	// ClientAddr is the producer-facility address applications dial.
	ClientAddr string
	// RemoteProxyAddr is the consumer-side WAN proxy address.
	RemoteProxyAddr string
}

// S2UC is the SciStream user client. It brokers requests and carries the
// short-lived credentials (here: the facility server certificates).
type S2UC struct {
	Timeout time.Duration
}

// CreateSessions performs the paper's §4.4 inbound-request /
// outbound-request pair for every request and returns the sessions in
// request order. All requests must name the same two control servers with
// the same certificates; a missing certificate is an error before anything
// is dialed. It opens one pinned TLS control connection to each server,
// both dialed concurrently, pipelines every inbound request to the
// consumer side, then every outbound request (each carrying its inbound's
// UID and WAN proxy) to the producer side. The S2CS handles a pipelined
// batch concurrently, so the outbound proxies' tunnel pre-warms overlap.
func (u *S2UC) CreateSessions(reqs []SessionRequest) ([]*Session, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	first := reqs[0]
	if len(first.ProducerCert) == 0 || len(first.ConsumerCert) == 0 {
		return nil, errors.New("scistream: session request needs both S2CS certificates")
	}
	for _, r := range reqs[1:] {
		if r.ProducerS2CS != first.ProducerS2CS || r.ConsumerS2CS != first.ConsumerS2CS ||
			!bytes.Equal(r.ProducerCert, first.ProducerCert) || !bytes.Equal(r.ConsumerCert, first.ConsumerCert) {
			return nil, errors.New("scistream: session requests name different control servers")
		}
	}
	timeout := u.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)

	// The producer side's handshake overlaps the inbound exchange; the
	// outbound requests wait for it.
	type dialed struct {
		c   *tls.Conn
		err error
	}
	prodc := make(chan dialed, 1)
	go func() {
		c, err := dialControl(first.ProducerS2CS, first.ProducerCert, deadline)
		prodc <- dialed{c, err}
	}()
	producer := sync.OnceValue(func() dialed { return <-prodc })
	defer func() {
		if p := producer(); p.c != nil {
			p.c.Close()
		}
	}()
	cons, err := dialControl(first.ConsumerS2CS, first.ConsumerCert, deadline)
	if err != nil {
		return nil, fmt.Errorf("scistream: consumer S2CS: %w", err)
	}
	defer cons.Close()

	// Step 1: inbound requests to the consumer-side S2CS create the
	// WAN-facing proxies (PROXY) and the session UIDs.
	ins := make([]ControlRequest, len(reqs))
	for i, r := range reqs {
		tunnel, numConn := r.driver()
		ins[i] = ControlRequest{Type: "inbound", Tunnel: tunnel, NumConn: numConn, ReceiverPorts: r.Targets}
	}
	inResps, err := exchange(cons, ins)
	if err != nil {
		return nil, fmt.Errorf("scistream: inbound request: %w", err)
	}
	// Step 2: outbound requests to the producer-side S2CS create the
	// application-facing proxies tunneled to each PROXY.
	outs := make([]ControlRequest, len(reqs))
	for i, r := range reqs {
		tunnel, numConn := r.driver()
		outs[i] = ControlRequest{Type: "outbound", UID: inResps[i].UID, Tunnel: tunnel, NumConn: numConn, RemoteProxy: inResps[i].ProxyAddr}
	}
	prod := producer()
	if prod.err != nil {
		return nil, fmt.Errorf("scistream: producer S2CS: %w", prod.err)
	}
	outResps, err := exchange(prod.c, outs)
	if err != nil {
		return nil, fmt.Errorf("scistream: outbound request: %w", err)
	}
	sessions := make([]*Session, len(reqs))
	for i := range reqs {
		sessions[i] = &Session{
			UID:             inResps[i].UID,
			ClientAddr:      outResps[i].ProxyAddr,
			RemoteProxyAddr: inResps[i].ProxyAddr,
		}
	}
	return sessions, nil
}

// driver returns the request's tunnel driver and connection count with
// their defaults applied.
func (r SessionRequest) driver() (string, int) {
	tunnel, numConn := r.Tunnel, r.NumConn
	if tunnel == "" {
		tunnel = TunnelHAProxy
	}
	if numConn <= 0 {
		numConn = 1
	}
	return string(tunnel), numConn
}

// dialControl opens a TLS control connection that trusts only certPEM.
func dialControl(addr string, certPEM []byte, deadline time.Time) (*tls.Conn, error) {
	pool, err := tlsutil.PoolFromPEM(certPEM)
	if err != nil {
		return nil, err
	}
	raw, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	host, _, _ := net.SplitHostPort(addr)
	c := tls.Client(raw, &tls.Config{ServerName: host, RootCAs: pool})
	c.SetDeadline(deadline)
	if err := c.Handshake(); err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

// exchange pipelines reqs on c; the first error response fails it.
func exchange(c net.Conn, reqs []ControlRequest) ([]ControlResponse, error) {
	resps, err := pipeline(c, reqs)
	if err != nil {
		return nil, err
	}
	for _, r := range resps {
		if r.Err != "" {
			return nil, fmt.Errorf("scistream: control error: %s", r.Err)
		}
	}
	return resps, nil
}

// pipeline writes every request on c in one write and reads one response
// per request, error responses included.
func pipeline(c net.Conn, reqs []ControlRequest) ([]ControlResponse, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			return nil, err
		}
	}
	if _, err := c.Write(buf.Bytes()); err != nil {
		return nil, err
	}
	resps := make([]ControlResponse, len(reqs))
	dec := json.NewDecoder(c)
	for i := range resps {
		if err := dec.Decode(&resps[i]); err != nil {
			return nil, err
		}
	}
	return resps, nil
}
