package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/telemetry"
)

var (
	relays     = telemetry.Default.Counter("transport.relays")
	halfCloses = telemetry.Default.Counter("transport.half_closes")
	relayBytes = telemetry.Default.Counter("transport.relay_bytes")
)

// ErrAdmissionClosed reports an admission gate torn down while a
// connection was still queued for a worker.
var ErrAdmissionClosed = errors.New("transport: admission gate closed")

// Relay copies both directions between a and b until both directions
// finish, propagating half-closes: when one direction reaches EOF, the
// peer's write side is shut down with CloseWrite (TCP FIN / TLS
// close_notify / mux FIN) while the reverse direction keeps flowing.
// This is what makes request-drain-then-respond exchanges survive a
// proxy hop — the previous per-package relay loops did a full Close on
// first EOF, truncating the reverse direction. Both connections are
// fully closed before Relay returns.
func Relay(a, b net.Conn) {
	RelayCtx(a, b, telemetry.ContextNone)
}

// RelayCtx is Relay with a tagged telemetry context: relayed bytes are
// additionally charged to transport.relay_tier_bytes under ctx (e.g.
// "tier=prs" for a PRS S2DS hop, "tier=mss" for the MSS balancer), so
// per-tier throughput is a first-class series. ContextNone skips the
// tagged charge. The counter resolves once per relay — the per-write
// path stays atomic adds. (The tagged family is distinct from the
// untagged transport.relay_bytes total, which every relay charges.)
func RelayCtx(a, b net.Conn, ctx telemetry.Context) {
	relays.Inc()
	var tagged *telemetry.Counter
	if ctx != telemetry.ContextNone {
		tagged = telemetry.Default.CounterCtx("transport.relay_tier_bytes", ctx)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		relayHalf(b, a, tagged)
	}()
	go func() {
		defer wg.Done()
		relayHalf(a, b, tagged)
	}()
	wg.Wait()
	a.Close()
	b.Close()
}

// relayHalf copies src→dst; on clean EOF it half-closes dst so the peer
// observes the end of stream, on error it tears both ends down (the
// other copy direction unblocks on the closed connections). Bytes are
// charged to the relay-bytes telemetry as they flow, so a live rollup
// sees proxy traffic mid-stream rather than at connection teardown.
func relayHalf(dst, src net.Conn, tagged *telemetry.Counter) {
	_, err := io.Copy(&countingWriter{w: dst, tagged: tagged}, src)
	if err == nil {
		if CloseWrite(dst) {
			halfCloses.Inc()
			return
		}
	}
	dst.Close()
	src.Close()
}

// countingWriter charges relayed bytes to the transport telemetry.
// It forwards io.Copy's ReadFrom probe to the underlying connection so
// the kernel zero-copy path (splice/sendfile on TCP) is preserved;
// those bytes are charged when the transfer completes rather than
// live, which only matters for the duration of one connection.
type countingWriter struct {
	w      io.Writer
	tagged *telemetry.Counter // optional per-tier series; nil = untagged relay
}

func (cw *countingWriter) charge(n int64) {
	relayBytes.Add(n)
	if cw.tagged != nil {
		cw.tagged.Add(n)
	}
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.charge(int64(n))
	}
	return n, err
}

func (cw *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := cw.w.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(r)
		if n > 0 {
			cw.charge(n)
		}
		return n, err
	}
	return io.Copy(onlyWriter{cw}, r)
}

// onlyWriter hides ReadFrom so the fallback copy goes through Write.
type onlyWriter struct{ io.Writer }

// closeWriter is the half-close capability of *net.TCPConn, *tls.Conn
// and mux streams.
type closeWriter interface{ CloseWrite() error }

// connUnwrapper is implemented by shaping/wrapping layers (netem.Conn,
// fault conns) that delegate to an inner connection.
type connUnwrapper interface{ Unwrap() net.Conn }

// CloseWrite shuts down the write side of c if the connection (or any
// connection it wraps) supports half-close, reporting whether it did.
// Callers fall back to a full Close when it reports false.
func CloseWrite(c net.Conn) bool {
	for {
		switch x := c.(type) {
		case closeWriter:
			x.CloseWrite()
			return true
		case connUnwrapper:
			c = x.Unwrap()
		default:
			return false
		}
	}
}

// Admission bounds concurrent connection setups the way the MSS load
// balancer's worker pool does (§4.5): a connection waits for one of
// Workers slots, then pays SetupCost of per-connection admission work
// (policy checks, route admission). Established flows are not gated —
// callers Release as soon as setup finishes. Queueing here is a major
// source of MSS latency at high consumer counts.
type Admission struct {
	// SetupCost models per-connection admission work beyond the TLS
	// handshake itself.
	SetupCost time.Duration

	sem      chan struct{}
	queuedNs atomic.Int64 // cumulative queue wait
}

// NewAdmission builds a gate with the given worker count (minimum 1).
func NewAdmission(workers int, setupCost time.Duration) *Admission {
	if workers <= 0 {
		workers = 1
	}
	return &Admission{SetupCost: setupCost, sem: make(chan struct{}, workers)}
}

// Acquire blocks until a worker slot is free, recording the time spent
// queued. A close of the cancel channel abandons the wait.
func (a *Admission) Acquire(cancel <-chan struct{}) error {
	start := time.Now()
	select {
	case a.sem <- struct{}{}:
	case <-cancel:
		return ErrAdmissionClosed
	}
	a.queuedNs.Add(int64(time.Since(start)))
	return nil
}

// Release frees the worker slot taken by Acquire.
func (a *Admission) Release() { <-a.sem }

// Setup pays the per-connection admission cost.
func (a *Admission) Setup() {
	if a.SetupCost > 0 {
		time.Sleep(a.SetupCost)
	}
}

// QueueWait reports cumulative time connections spent waiting for a
// worker slot.
func (a *Admission) QueueWait() time.Duration {
	return time.Duration(a.queuedNs.Load())
}
