package scistream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/tlsutil"
)

// --- mux tests ---

func muxPair(t *testing.T, maxStreams int) (client, server *Mux) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-done
	client = NewMux(cc, false, maxStreams)
	server = NewMux(sc, true, maxStreams)
	t.Cleanup(func() { client.Close(); server.Close(); ln.Close() })
	return client, server
}

func TestMuxSingleStreamEcho(t *testing.T) {
	client, server := muxPair(t, 0)
	go func() {
		s, err := server.Accept()
		if err != nil {
			return
		}
		io.Copy(s, s)
	}()
	s, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the overlay tunnel")
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo mismatch %q", buf)
	}
}

func TestMuxManyConcurrentStreams(t *testing.T) {
	client, server := muxPair(t, 0)
	go func() {
		for {
			s, err := server.Accept()
			if err != nil {
				return
			}
			go io.Copy(s, s)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := client.Open()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			msg := []byte(fmt.Sprintf("stream-%d-payload", i))
			if _, err := s.Write(msg); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(s, buf); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("stream %d crosstalk: %q", i, buf)
			}
		}(i)
	}
	wg.Wait()
}

func TestMuxStreamCap(t *testing.T) {
	client, _ := muxPair(t, 3)
	var streams []net.Conn
	for i := 0; i < 3; i++ {
		s, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	if _, err := client.Open(); err != ErrTooManyStreams {
		t.Fatalf("err = %v, want ErrTooManyStreams", err)
	}
	// Closing one frees a slot.
	streams[0].Close()
	if _, err := client.Open(); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestMuxLargeTransfer(t *testing.T) {
	client, server := muxPair(t, 0)
	go func() {
		s, err := server.Accept()
		if err != nil {
			return
		}
		io.Copy(s, s)
	}()
	s, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go s.Write(payload)
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("1 MiB payload corrupted through mux")
	}
}

func TestMuxCloseDeliversEOF(t *testing.T) {
	client, server := muxPair(t, 0)
	accepted := make(chan net.Conn, 1)
	go func() {
		s, err := server.Accept()
		if err == nil {
			accepted <- s
		}
	}()
	s, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	s.Close()
	buf := make([]byte, 1)
	if _, err := peer.Read(buf); err != io.EOF {
		t.Fatalf("read after peer close = %v, want EOF", err)
	}
}

func TestMuxRejectsOversizedFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	m := NewMux(<-accepted, true, 0)
	defer m.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hdr [9]byte
	hdr[0] = muxDATA
	binary.BigEndian.PutUint32(hdr[1:5], 1)
	binary.BigEndian.PutUint32(hdr[5:9], 1<<31)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.done:
	case <-time.After(5 * time.Second):
		t.Fatal("mux still open after a 2 GiB frame header")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<30 {
		t.Fatalf("mux allocated %d bytes for an oversized frame", grew)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer connection still open")
	}
}

// --- end-to-end session over proxies ---

// echoServer is a stand-in streaming service.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln.Addr().String()
}

func newSessionForTest(t *testing.T, tun Tunnel, numConn int, targets ...string) *Session {
	t.Helper()
	tunnelID, err := tlsutil.SelfSigned("tunnel", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	prodID, err := tlsutil.SelfSigned("ps2cs", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	consID, err := tlsutil.SelfSigned("cs2cs", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	prodCS, err := NewS2CS(S2CSConfig{Identity: prodID, TunnelIdentity: tunnelID, ServerName: "127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prodCS.Close() })
	consCS, err := NewS2CS(S2CSConfig{Identity: consID, TunnelIdentity: tunnelID, ServerName: "127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { consCS.Close() })

	uc := &S2UC{}
	sessions, err := uc.CreateSessions([]SessionRequest{{
		ProducerS2CS: prodCS.Addr(),
		ConsumerS2CS: consCS.Addr(),
		ProducerCert: prodID.CertPEM,
		ConsumerCert: consID.CertPEM,
		Targets:      targets,
		Tunnel:       tun,
		NumConn:      numConn,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return sessions[0]
}

func checkEcho(t *testing.T, addr string, msg string) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != msg {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestSessionHAProxyEndToEnd(t *testing.T) {
	target := echoServer(t)
	sess := newSessionForTest(t, TunnelHAProxy, 1, target)
	checkEcho(t, sess.ClientAddr, "haproxy tunnel data")
}

func TestSessionStunnelEndToEnd(t *testing.T) {
	target := echoServer(t)
	sess := newSessionForTest(t, TunnelStunnel, 1, target)
	checkEcho(t, sess.ClientAddr, "stunnel tunnel data")
}

func TestSessionHAProxyFourConns(t *testing.T) {
	target := echoServer(t)
	sess := newSessionForTest(t, TunnelHAProxy, 4, target)
	for i := 0; i < 6; i++ {
		checkEcho(t, sess.ClientAddr, fmt.Sprintf("conn-%d", i))
	}
}

func TestSessionStunnelConnectionLimit(t *testing.T) {
	target := echoServer(t)
	sess := newSessionForTest(t, TunnelStunnel, 1, target)

	// Hold 16 concurrent connections open: all must work.
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < StunnelMaxStreams; i++ {
		c, err := net.Dial("tcp", sess.ClientAddr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}
	// The 17th must be refused (closed without echoing).
	extra, err := net.Dial("tcp", sess.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	extra.Write([]byte("y"))
	extra.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := extra.Read(buf); err == nil {
		t.Fatal("17th concurrent stunnel connection should fail")
	}
}

func TestSessionRoundRobinAcrossTargets(t *testing.T) {
	t1 := echoServer(t)
	t2 := echoServer(t)
	sess := newSessionForTest(t, TunnelHAProxy, 1, t1, t2)
	// Multiple sequential connections should all succeed regardless of
	// which backend they land on.
	for i := 0; i < 4; i++ {
		checkEcho(t, sess.ClientAddr, fmt.Sprintf("rr-%d", i))
	}
}

func TestControlRejectsBadRequests(t *testing.T) {
	id, err := tlsutil.SelfSigned("cs", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewS2CS(S2CSConfig{Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	for _, bad := range []struct {
		req  ControlRequest
		what string
	}{
		{ControlRequest{Type: "inbound"}, "inbound without receiver_ports"},
		{ControlRequest{Type: "outbound"}, "outbound without remote_proxy"},
		{ControlRequest{Type: "bogus"}, "unknown type"},
	} {
		c, err := dialControl(cs.Addr(), id.CertPEM, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exchange(c, []ControlRequest{bad.req}); err == nil {
			t.Errorf("%s should fail", bad.what)
		}
		c.Close()
	}
}

func TestCreateSessionsRequiresCertificates(t *testing.T) {
	id, err := tlsutil.SelfSigned("cs", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewS2CS(S2CSConfig{Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	uc := &S2UC{}
	_, err = uc.CreateSessions([]SessionRequest{{
		ProducerS2CS: cs.Addr(),
		ConsumerS2CS: cs.Addr(),
		ProducerCert: id.CertPEM,
		Targets:      []string{"127.0.0.1:1"},
	}})
	if err == nil {
		t.Fatal("a session request without the consumer certificate must fail")
	}
	if n := cs.ControlConns(); n != 0 {
		t.Fatalf("%d control connections opened before the certificate check", n)
	}
}

// TestS2CSPipelinesRequests sends one batch on one control connection: an
// outbound request whose tunnel pre-warm the gate below holds, a bad
// request, an inbound request, and a second held outbound. The gate
// releases its tunnel dials only once both are open at once, so the batch
// completes promptly only if the S2CS handles the requests concurrently,
// and the responses must still come back in request order.
func TestS2CSPipelinesRequests(t *testing.T) {
	target := echoServer(t)
	gate, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gate.Close()
	var (
		mu            sync.Mutex
		open, maxOpen int
		both          = make(chan struct{})
		bothOnce      sync.Once
	)
	go func() {
		for {
			c, err := gate.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			open++
			maxOpen = max(maxOpen, open)
			if open == 2 {
				bothOnce.Do(func() { close(both) })
			}
			mu.Unlock()
			go func() {
				select {
				case <-both:
				case <-time.After(5 * time.Second):
				}
				mu.Lock()
				open--
				mu.Unlock()
				c.Close()
			}()
		}
	}()

	id, err := tlsutil.SelfSigned("cs", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	cs, err := NewS2CS(S2CSConfig{Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	c, err := dialControl(cs.Addr(), id.CertPEM, time.Now().Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held := ControlRequest{Type: "outbound", Tunnel: string(TunnelHAProxy), NumConn: 1, RemoteProxy: gate.Addr().String()}
	resps, err := pipeline(c, []ControlRequest{
		held,
		{Type: "bogus"},
		{Type: "inbound", Tunnel: string(TunnelHAProxy), NumConn: 1, ReceiverPorts: []string{target}},
		held,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	concurrent := maxOpen
	mu.Unlock()
	if concurrent != 2 {
		t.Errorf("held outbound requests were handled one after the other (max %d tunnel dials open)", concurrent)
	}
	if r := resps[0]; r.Err != "" || r.ProxyAddr == "" {
		t.Errorf("response 0 = %+v, want the first outbound proxy", r)
	} else if _, ok := cs.Outbound(r.UID); !ok {
		t.Errorf("response 0 names %q, which is no outbound session", r.UID)
	}
	if r := resps[1]; r.Err == "" {
		t.Errorf("response 1 = %+v, want the bad request's error", r)
	}
	if r := resps[2]; r.Err != "" {
		t.Errorf("response 2 = %+v, want the inbound proxy", r)
	} else {
		cs.mu.Lock()
		_, ok := cs.inbounds[r.UID]
		cs.mu.Unlock()
		if !ok {
			t.Errorf("response 2 names %q, which is no inbound session", r.UID)
		}
	}
	if r := resps[3]; r.Err != "" || r.UID == resps[0].UID {
		t.Errorf("response 3 = %+v, want a second outbound proxy", r)
	}

	// Close ends the still-open control connection and its goroutines.
	cs.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("control connection open after Close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before the S2CS started", n, base)
	}
}

func TestInboundRequiresIdentity(t *testing.T) {
	if _, err := NewInbound(InboundConfig{Targets: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("expected error without identity")
	}
	id, _ := tlsutil.SelfSigned("x", "127.0.0.1")
	if _, err := NewInbound(InboundConfig{Identity: id}); err == nil {
		t.Fatal("expected error without targets")
	}
}

func TestTunnelRejectsUntrustedClient(t *testing.T) {
	target := echoServer(t)
	serverID, _ := tlsutil.SelfSigned("tunnel", "127.0.0.1")
	rogueID, _ := tlsutil.SelfSigned("rogue", "127.0.0.1")
	in, err := NewInbound(InboundConfig{
		Targets:  []string{target},
		Tunnel:   TunnelHAProxy,
		Identity: serverID,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// A client presenting a certificate from a different root must fail
	// the mTLS handshake.
	_, err = NewOutbound(OutboundConfig{
		RemoteProxy: in.Addr(),
		Tunnel:      TunnelHAProxy,
		Identity:    rogueID,
		ServerName:  "127.0.0.1",
	})
	if err != nil {
		return // pre-warm path surfaced the failure, fine
	}
	// Otherwise the failure surfaces on first use.
	c, err := net.Dial("tcp", in.Addr())
	if err != nil {
		t.Skip("inbound listener gone")
	}
	c.Close()
	if in.relayed.Load() != 0 {
		t.Fatal("untrusted peer relayed data")
	}
}
