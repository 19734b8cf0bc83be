// Package netem emulates wide-area and facility network links on top of real
// net.Conn connections. The paper's testbed bottleneck — a 1 Gbps Ethernet
// path between Andes compute nodes and the Data Streaming Nodes — is modeled
// with a token-bucket rate limiter shared by every connection traversing a
// Link, plus one-way propagation latency and optional jitter.
//
// All experiments in this repository run over loopback TCP; netem restores
// the network characteristics that make the paper's architecture comparison
// meaningful (shared bottlenecks, per-hop latency, TLS hop costs).
package netem

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Link describes one emulated network segment. A single Link instance may be
// shared by many connections; they then contend for its bandwidth the way
// flows share a physical wire.
type Link struct {
	// Name identifies the link in logs and metrics (e.g. "andes-dsn").
	Name string
	// RateBps is the line rate in bits per second. Zero means unshaped.
	RateBps int64
	// Latency is the one-way propagation delay added to each write.
	Latency time.Duration
	// Jitter, if non-zero, adds a uniformly distributed extra delay in
	// [0, Jitter) to each write.
	Jitter time.Duration
	// MTU is the segment size used for pacing. Writes are paced in MTU
	// chunks so one large message cannot monopolize the wire. Zero means
	// 64 KiB.
	MTU int

	mu      sync.Mutex
	tokens  float64   // available bytes
	last    time.Time // last refill
	rng     *rand.Rand
	rngInit sync.Once
}

// DefaultMTU is the pacing chunk size when Link.MTU is zero.
const DefaultMTU = 64 * 1024

// Mbps converts megabits per second to bits per second.
func Mbps(m float64) int64 { return int64(m * 1e6) }

// NewLink builds a link with the given name, rate and one-way latency.
func NewLink(name string, rateBps int64, latency time.Duration) *Link {
	return &Link{Name: name, RateBps: rateBps, Latency: latency}
}

// mtu returns the pacing chunk size.
func (l *Link) mtu() int {
	if l.MTU > 0 {
		return l.MTU
	}
	return DefaultMTU
}

// take charges n bytes against the link's token bucket, sleeping off any
// accumulated debt to enforce the line rate. The bucket may go negative
// (pay-ahead accounting): tiny charges coalesce and are slept off in one
// millisecond-granularity pause, which keeps pacing accurate without
// issuing sub-millisecond sleeps the OS timer cannot honour.
func (l *Link) take(n int) {
	if l.RateBps <= 0 || n <= 0 {
		return
	}
	bytesPerSec := float64(l.RateBps) / 8
	// Cap positive burst credit at ~8 ms of line rate (at least one MTU)
	// so idle periods cannot defeat the bottleneck.
	burst := bytesPerSec / 128
	if burst < float64(l.mtu()) {
		burst = float64(l.mtu())
	}
	l.mu.Lock()
	now := time.Now()
	if l.last.IsZero() {
		l.last = now
	}
	l.tokens += now.Sub(l.last).Seconds() * bytesPerSec
	l.last = now
	if l.tokens > burst {
		l.tokens = burst
	}
	l.tokens -= float64(n)
	debt := -l.tokens
	l.mu.Unlock()
	if debt > 0 {
		sleep := time.Duration(debt / bytesPerSec * float64(time.Second))
		// Debts shorter than a millisecond ride along with the next
		// charge; the bucket remembers them.
		if sleep >= time.Millisecond {
			time.Sleep(sleep)
		}
	}
}

// delay sleeps for the link's propagation latency plus jitter.
func (l *Link) delay() {
	d := l.Latency
	if l.Jitter > 0 {
		l.rngInit.Do(func() { l.rng = rand.New(rand.NewSource(time.Now().UnixNano())) })
		l.mu.Lock()
		j := time.Duration(l.rng.Int63n(int64(l.Jitter)))
		l.mu.Unlock()
		d += j
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Conn wraps a net.Conn with link emulation. Writes are paced against the
// link's token bucket and delayed by its latency; reads pass through (the
// peer's writes already paid the cost, so shaping both sides would double
// count).
//
// Propagation latency is charged per flow restart, not per write: a write
// that follows the previous one within the latency window rides the
// already-full pipe (packets in flight back to back), while a write after
// an idle gap pays the full propagation delay. This keeps request-response
// exchanges honest about RTT without serializing bulk streams.
type Conn struct {
	net.Conn
	link *Link

	mu        sync.Mutex
	lastWrite time.Time
}

// Wrap attaches link emulation to an existing connection. A nil link returns
// the connection unchanged.
func Wrap(c net.Conn, l *Link) net.Conn {
	if l == nil {
		return c
	}
	return &Conn{Conn: c, link: l}
}

// Write paces the payload through the link in MTU-sized chunks.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	idle := time.Since(c.lastWrite) >= c.link.Latency
	c.mu.Unlock()
	if idle {
		c.link.delay()
	}
	defer func() {
		c.mu.Lock()
		c.lastWrite = time.Now()
		c.mu.Unlock()
	}()
	mtu := c.link.mtu()
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > mtu {
			n = mtu
		}
		c.link.take(n)
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Unwrap returns the underlying connection.
func (c *Conn) Unwrap() net.Conn { return c.Conn }

// Dialer dials TCP connections shaped by a link.
type Dialer struct {
	Link    *Link
	Timeout time.Duration
}

// Dial connects to addr and wraps the connection in the dialer's link.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	timeout := d.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return Wrap(c, d.Link), nil
}
