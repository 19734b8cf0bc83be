package transport

import (
	"bytes"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/netem"
	"ds2hpc/internal/tlsutil"
)

// startEcho runs a TCP echo server, returning its address.
func startEcho(t *testing.T) string {
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
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	return ln.Addr().String()
}

func TestPathCompositionAndString(t *testing.T) {
	addr := startEcho(t)
	link := netem.NewLink("test-nic", 0, 0)
	p := Path{Link(link), Target(addr)}
	if got := p.String(); got != "link(test-nic) → target("+addr+")" {
		t.Fatalf("String() = %q", got)
	}
	// The dial ignores the requested address (Target hop) and the returned
	// connection is shaped (Link hop outermost).
	c, err := p.Dial()("tcp", "ignored:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*netem.Conn); !ok {
		t.Fatalf("outermost conn = %T, want *netem.Conn", c)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo: %q %v", buf, err)
	}
	if Path(nil).String() != "direct" {
		t.Fatal("empty path must render as direct")
	}
}

func TestTLSClientHop(t *testing.T) {
	id, err := tlsutil.SelfSigned("hoptest", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", id.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	p := Path{TLSClient(id.ClientConfig("127.0.0.1"))}
	c, err := p.Dial()("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*tls.Conn); !ok {
		t.Fatalf("conn = %T, want *tls.Conn", c)
	}
	if _, err := c.Write([]byte("tls")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "tls" {
		t.Fatalf("echo over tls: %q %v", buf, err)
	}
}

// TestRelayHalfClose is the regression test for the half-close bug the
// shared relay fixes: the client sends a request and closes its write
// side; the server drains to EOF and only then streams a response larger
// than any buffer. A relay that fully closes on first EOF truncates the
// response.
func TestRelayHalfClose(t *testing.T) {
	response := bytes.Repeat([]byte("resp"), 1<<18) // 1 MiB

	// Backend: drain request to EOF, then write the response and close.
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		c, err := backend.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := io.Copy(io.Discard, c); err != nil {
			return
		}
		c.Write(response)
	}()

	// Relay front door.
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	go func() {
		c, err := front.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", backend.Addr().String())
		if err != nil {
			c.Close()
			return
		}
		Relay(c, b)
	}()

	c, err := net.Dial("tcp", front.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("request")); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, response) {
		t.Fatalf("response truncated: got %d bytes, want %d", len(got), len(response))
	}
}

func TestCloseWriteUnwraps(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// net.Pipe conns support neither CloseWrite nor Unwrap.
	if CloseWrite(a) {
		t.Fatal("pipe conn must not report half-close support")
	}
	c1, c2 := net.Pipe()
	defer c2.Close()
	inner := &tcpLike{Conn: c1}
	wrapped := netem.Wrap(inner, netem.NewLink("l", 0, 0))
	if !CloseWrite(wrapped) {
		t.Fatal("CloseWrite must unwrap netem.Conn to the half-closable conn")
	}
	if !inner.closedWrite {
		t.Fatal("CloseWrite not propagated to inner conn")
	}
}

// tcpLike gives a pipe conn a CloseWrite method.
type tcpLike struct {
	net.Conn
	closedWrite bool
}

func (c *tcpLike) CloseWrite() error { c.closedWrite = true; return nil }

func TestAdmissionQueueWait(t *testing.T) {
	a := NewAdmission(1, 0)
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.Acquire(nil)
		a.Release()
	}()
	time.Sleep(20 * time.Millisecond)
	a.Release()
	wg.Wait()
	if a.QueueWait() < 10*time.Millisecond {
		t.Fatalf("queue wait %v too small for a held worker", a.QueueWait())
	}
	// Cancelled waits surface ErrAdmissionClosed.
	if err := a.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	if err := a.Acquire(cancel); !errors.Is(err, ErrAdmissionClosed) {
		t.Fatalf("cancelled acquire: %v", err)
	}
	a.Release()
}

func TestInjectorPartitionAndFlap(t *testing.T) {
	addr := startEcho(t)
	in := NewInjector()
	dial := Path{in.Hop()}.Dial()

	c, err := dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}

	in.Partition()
	if _, err := dial("tcp", addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned dial: %v", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on reset conn must fail")
	}
	in.Heal()
	c2, err := dial("tcp", addr)
	if err != nil {
		t.Fatalf("healed dial: %v", err)
	}
	c2.Close()

	st := in.Stats()
	if st.Dials != 2 || st.Refused != 1 || st.Resets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInjectorFlapAfterBytes(t *testing.T) {
	addr := startEcho(t)
	in := NewInjector()
	in.FlapAfterBytes(64, 30*time.Millisecond)
	dial := Path{in.Hop()}.Dial()
	c, err := dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 32)
	// Crossing the 64-byte threshold must fire the armed flap.
	for i := 0; i < 4; i++ {
		if _, err := c.Write(buf); err != nil {
			break
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for in.Stats().Flaps == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if in.Stats().Flaps != 1 {
		t.Fatalf("flaps = %d, want 1", in.Stats().Flaps)
	}
	// One-shot: the link heals and stays up.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c3, err := dial("tcp", addr); err == nil {
			c3.Close()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("link did not heal after one-shot flap")
}

func TestInjectorLatencySpike(t *testing.T) {
	addr := startEcho(t)
	in := NewInjector()
	dial := Path{in.Hop()}.Dial()
	c, err := dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in.SetLatencySpike(30 * time.Millisecond)
	start := time.Now()
	if _, err := c.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("spiked write took %v, want >= 20ms", d)
	}
	in.SetLatencySpike(0)
	start = time.Now()
	if _, err := c.Write([]byte("fast")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("cleared spike still slow: %v", d)
	}
}
