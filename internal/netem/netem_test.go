package netem

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func pipe(t *testing.T, link *Link) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		done <- Wrap(c, link)
	}()
	d := &Dialer{Link: link}
	c, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	t.Cleanup(func() { c.Close(); s.Close(); ln.Close() })
	return c, s
}

func TestUnshapedPassThrough(t *testing.T) {
	c, s := pipe(t, nil)
	msg := []byte("hello over loopback")
	go func() {
		if _, err := c.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}
}

func TestRateLimitThrottles(t *testing.T) {
	// 8 Mbps => 1 MB/s. Sending 256 KiB should take >= ~200 ms.
	link := NewLink("test", Mbps(8), 0)
	c, s := pipe(t, link)
	payload := make([]byte, 256*1024)
	start := time.Now()
	go func() {
		if _, err := c.Write(payload); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("256 KiB over 8 Mbps finished in %v, expected >= ~200 ms", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("transfer took %v, limiter appears stuck", elapsed)
	}
}

func TestLatencyApplied(t *testing.T) {
	link := NewLink("lat", 0, 30*time.Millisecond)
	c, s := pipe(t, link)
	start := time.Now()
	go c.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("one-byte write arrived in %v, want >= 30ms latency", el)
	}
}

func TestSharedLinkContention(t *testing.T) {
	// Two flows over one 8 Mbps link must take roughly twice as long as
	// one flow for the same per-flow volume.
	link := NewLink("shared", Mbps(8), 0)
	c1, s1 := pipe(t, link)
	c2, s2 := pipe(t, link)
	const size = 128 * 1024

	var wg sync.WaitGroup
	recv := func(s net.Conn) {
		defer wg.Done()
		buf := make([]byte, size)
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Error(err)
		}
	}
	start := time.Now()
	wg.Add(2)
	go recv(s1)
	go recv(s2)
	go c1.Write(make([]byte, size))
	go c2.Write(make([]byte, size))
	wg.Wait()
	elapsed := time.Since(start)
	// 256 KiB total at 1 MB/s ≈ 250 ms.
	if elapsed < 150*time.Millisecond {
		t.Errorf("two flows finished in %v; link not shared", elapsed)
	}
}

func TestJitterWithinBounds(t *testing.T) {
	link := NewLink("jit", 0, 5*time.Millisecond)
	link.Jitter = 10 * time.Millisecond
	c, s := pipe(t, link)
	for i := 0; i < 3; i++ {
		// Leave an idle gap so each write restarts the flow and pays
		// propagation latency again.
		time.Sleep(8 * time.Millisecond)
		start := time.Now()
		go c.Write([]byte("y"))
		buf := make([]byte, 1)
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
		el := time.Since(start)
		if el < 4*time.Millisecond {
			t.Errorf("write %d arrived in %v, want >= base latency", i, el)
		}
	}
}

func TestLatencyPipelined(t *testing.T) {
	// Back-to-back writes must NOT pay per-write latency: 20 writes over
	// a 20 ms link should take far less than 20*20 ms.
	link := NewLink("pipe", 0, 20*time.Millisecond)
	c, s := pipe(t, link)
	go func() {
		for i := 0; i < 20; i++ {
			c.Write([]byte("z"))
		}
	}()
	start := time.Now()
	buf := make([]byte, 20)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Errorf("pipelined writes took %v; latency is serializing throughput", el)
	}
}

func TestUnitHelpers(t *testing.T) {
	if Mbps(100) != 100_000_000 {
		t.Errorf("Mbps(100) = %d", Mbps(100))
	}
}

func TestWrapNilLink(t *testing.T) {
	c, s := pipe(t, nil)
	if _, ok := c.(*Conn); ok {
		t.Error("nil link should not wrap dialer conn")
	}
	if _, ok := s.(*Conn); ok {
		t.Error("nil link should not wrap accepted conn")
	}
}

func TestUnwrap(t *testing.T) {
	link := NewLink("u", 0, 0)
	c, _ := pipe(t, link)
	wrapped, ok := c.(*Conn)
	if !ok {
		t.Fatal("expected wrapped conn")
	}
	if wrapped.Unwrap() == nil {
		t.Fatal("Unwrap returned nil")
	}
}

func TestTakeZeroAndNegative(t *testing.T) {
	link := NewLink("z", Mbps(1), 0)
	done := make(chan struct{})
	go func() {
		link.take(0)
		link.take(-5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("take(0) blocked")
	}
}
