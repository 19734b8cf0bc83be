package amqp

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/broker"
)

// silentPeer listens on loopback and accepts connections it never writes
// to: a broker that took the TCP connection and then hung.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range held {
			nc.Close()
		}
	})
	return ln.Addr().String()
}

// TestHandshakeBoundedAgainstSilentPeer: a peer that accepts the
// connection and never sends connection.start (or, under TLS, a
// ServerHello) fails the dial within the handshake bound instead of
// hanging it, and a redial that lands on such a peer ends the connection
// the same way.
func TestHandshakeBoundedAgainstSilentPeer(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 200 * time.Millisecond
	// Far above the lowered bound, far below "blocked for good".
	const limit = 5 * time.Second
	silent := silentPeer(t)

	for _, url := range []string{"amqp://" + silent, "amqps://" + silent} {
		errc := make(chan error, 1)
		go func() {
			c, err := DialConfig(url, Config{})
			if err == nil {
				c.Close()
			}
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("%s: dial succeeded against a silent peer", url)
			}
		case <-time.After(limit):
			t.Fatalf("%s: DialConfig still blocked after %v against a silent peer", url, limit)
		}
	}

	// The redial: the first transport reaches a broker and is cut; the one
	// redial attempt reaches the silent peer.
	s, err := broker.Listen(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dials atomic.Int32
	var first net.Conn
	c, err := DialConfig("amqp://"+s.Addr(), Config{
		Reconnect: &ReconnectPolicy{MaxAttempts: 1},
		Dial: func(network, addr string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				return net.Dial(network, silent)
			}
			nc, err := net.Dial(network, addr)
			first = nc
			return nc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	closed := c.NotifyClose(make(chan *Error, 1))
	first.Close()
	select {
	case <-closed:
	case <-time.After(limit):
		t.Fatalf("redial still blocked after %v against a silent peer", limit)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials, want the first and one redial", got)
	}
}
