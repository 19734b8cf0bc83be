package amqp

// The connection's one send buffer: small publishes share a socket write,
// everything else flushes inline behind them, and the bytes on the wire
// are the bytes the calls encoded, in call order. Writes are counted on
// the connection's own conn — above tls.Conn under TLS, so a count is
// Write calls, not the records beneath them.

import (
	"bytes"
	"crypto/tls"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/wire"
)

// recConn records every Write made on it after mark: the sizes, the bytes,
// and one token per call on wrote. With stall set, a Write parks until the
// channel is closed — a peer that has stopped reading, socket buffers full.
type recConn struct {
	net.Conn
	wrote chan struct{}

	mu     sync.Mutex
	on     bool
	sizes  []int
	stream bytes.Buffer
	stall  chan struct{}
}

func (r *recConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	on, stall := r.on, r.stall
	if on {
		r.sizes = append(r.sizes, len(p))
		r.stream.Write(p)
	}
	r.mu.Unlock()
	if on {
		r.wrote <- struct{}{}
	}
	if stall != nil {
		<-stall
	}
	return r.Conn.Write(p)
}

// mark starts recording; the handshake and the test's set-up stay out.
func (r *recConn) mark() {
	r.mu.Lock()
	r.on = true
	r.mu.Unlock()
}

func (r *recConn) snapshot() (sizes []int, stream []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.sizes...), append([]byte(nil), r.stream.Bytes()...)
}

// awaitBytes waits, one Write event at a time, until n bytes are recorded.
func (r *recConn) awaitBytes(t *testing.T, n int) {
	t.Helper()
	recorded := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.stream.Len()
	}
	timeout := time.After(10 * time.Second)
	for recorded() < n {
		select {
		case <-r.wrote:
		case <-timeout:
			t.Fatalf("recorded %d of %d bytes", recorded(), n)
		}
	}
}

// dialRecorded connects to a fresh broker through a recConn, plain or
// with TLS beneath the recorder, and declares queue "sb-q" on a channel.
func dialRecorded(t *testing.T, secure bool) (*Connection, *Channel, *recConn) {
	t.Helper()
	var bcfg broker.Config
	var tcfg *tls.Config
	if secure {
		id, err := tlsutil.SelfSigned("sendbuf-test", "127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		bcfg.TLS, tcfg = id.ServerConfig(), id.ClientConfig("127.0.0.1")
	}
	bcfg.Addr = "127.0.0.1:0"
	s, err := broker.Listen(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rec := &recConn{wrote: make(chan struct{}, 4096)}
	// The scheme stays amqp and Config.TLS nil, so the client stacks no
	// tls.Conn of its own on top of the recorder.
	c, err := DialConfig("amqp://"+s.Addr(), Config{Dial: func(network, addr string) (net.Conn, error) {
		raw, err := net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if tcfg != nil {
			tc := tls.Client(raw, tcfg)
			if err := tc.Handshake(); err != nil {
				raw.Close()
				return nil, err
			}
			raw = tc
		}
		rec.Conn = raw
		return rec, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ch, err := c.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.QueueDeclare("sb-q", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	return c, ch, rec
}

// wantPublish is what one Publish of msg to "sb-q" must put on the wire.
func wantPublish(c *Connection, ch *Channel, msg Publishing) []byte {
	w := wire.NewWriter()
	props := msg.properties()
	w.AppendContentFrames(ch.id, &wire.BasicPublish{RoutingKey: "sb-q"}, &props, msg.Body, c.frameMax.Load())
	return append([]byte(nil), w.Bytes()...)
}

func methodFrame(channel uint16, m wire.Method) []byte {
	w := wire.NewWriter()
	w.AppendMethodFrame(channel, m)
	return w.Bytes()
}

var sendBufTransports = []struct {
	name   string
	secure bool
}{{"plain", false}, {"tls", true}}

// TestSmallPublishesShareWrites: on one P, where the scheduled flush runs
// once the publisher yields, 64 back-to-back 1 KiB publishes leave in at
// most 3 writes (the buffer reaches its 64 KiB mark once on the way) and
// the stream is exactly 64 encoded publishes.
func TestSmallPublishesShareWrites(t *testing.T) {
	for _, tr := range sendBufTransports {
		t.Run(tr.name, func(t *testing.T) {
			c, ch, rec := dialRecorded(t, tr.secure)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			msg := Publishing{MessageID: "m", Body: bytes.Repeat([]byte{0x5A}, 1024)}
			one := wantPublish(c, ch, msg)
			rec.mark()
			for i := 0; i < 64; i++ {
				if err := ch.Publish("", "sb-q", false, false, msg); err != nil {
					t.Fatal(err)
				}
			}
			rec.awaitBytes(t, 64*len(one))
			sizes, stream := rec.snapshot()
			if len(sizes) > 3 {
				t.Fatalf("64 x 1 KiB publishes took %d writes %v, want at most 3", len(sizes), sizes)
			}
			if !bytes.Equal(stream, bytes.Repeat(one, 64)) {
				t.Fatalf("stream of %d bytes is not 64 encoded publishes (%d bytes)", len(stream), 64*len(one))
			}
		})
	}
}

// TestLonePublishIsFlushed: a single small publish reaches the socket
// with no further call on the connection.
func TestLonePublishIsFlushed(t *testing.T) {
	for _, tr := range sendBufTransports {
		t.Run(tr.name, func(t *testing.T) {
			c, ch, rec := dialRecorded(t, tr.secure)
			msg := Publishing{Body: make([]byte, 1024)}
			one := wantPublish(c, ch, msg)
			rec.mark()
			if err := ch.Publish("", "sb-q", false, false, msg); err != nil {
				t.Fatal(err)
			}
			rec.awaitBytes(t, len(one))
			if sizes, stream := rec.snapshot(); len(sizes) != 1 || !bytes.Equal(stream, one) {
				t.Fatalf("a lone publish left as writes %v", sizes)
			}
		})
	}
}

// TestWireOrderIsCallOrder: deferred and inline frames share one buffer,
// so two small publishes, a declare, a borrowed 64 KiB publish and an ack
// arrive in that order — the first three in one write, the declare's.
func TestWireOrderIsCallOrder(t *testing.T) {
	for _, tr := range sendBufTransports {
		t.Run(tr.name, func(t *testing.T) {
			c, ch, rec := dialRecorded(t, tr.secure)
			small := Publishing{MessageID: "small", Body: make([]byte, 1024)}
			large := Publishing{MessageID: "large", Body: make([]byte, 64<<10)}
			if err := ch.Publish("", "sb-q", false, false, small); err != nil {
				t.Fatal(err)
			}
			d, ok, err := ch.Get("sb-q", false)
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			declare := methodFrame(ch.id, &wire.QueueDeclare{Queue: "sb-q"})
			var want []byte
			want = append(want, wantPublish(c, ch, small)...)
			want = append(want, wantPublish(c, ch, small)...)
			first := len(want) + len(declare)
			want = append(want, declare...)
			want = append(want, wantPublish(c, ch, large)...)
			want = append(want, methodFrame(ch.id, &wire.BasicAck{DeliveryTag: d.DeliveryTag})...)

			// One P: the flush the first publish schedules cannot run before
			// the declare's inline write has taken everything pending.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			rec.mark()
			for _, step := range []func() error{
				func() error { return ch.Publish("", "sb-q", false, false, small) },
				func() error { return ch.Publish("", "sb-q", false, false, small) },
				func() error { _, err := ch.QueueDeclare("sb-q", false, false, false, false, nil); return err },
				func() error { return ch.Publish("", "sb-q", false, false, large) },
				func() error { return d.Ack(false) },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			sizes, stream := rec.snapshot() // the ack was an inline write: nothing is pending
			if !bytes.Equal(stream, want) {
				t.Fatalf("stream of %d bytes differs from the %d bytes the calls encode, in call order", len(stream), len(want))
			}
			if sizes[0] != first {
				t.Fatalf("first write is %d bytes, want both small publishes and the declare in it (%d); writes %v", sizes[0], first, sizes)
			}
		})
	}
}

// TestSendBufferIsBounded: with the peer not reading, a publisher blocks
// once the buffer has passed its 64 KiB mark, and no write — a write is
// the whole buffer — ever carries more than the mark plus one message.
func TestSendBufferIsBounded(t *testing.T) {
	c, ch, rec := dialRecorded(t, false)
	msg := Publishing{Body: make([]byte, 1024)}
	one := len(wantPublish(c, ch, msg))
	const total = 400 // about six buffers' worth
	release := make(chan struct{})
	rec.mu.Lock()
	rec.stall, rec.on = release, true
	rec.mu.Unlock()
	var published atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := ch.Publish("", "sb-q", false, false, msg); err != nil {
				done <- err
				return
			}
			published.Add(1)
		}
		done <- nil
	}()
	// A write is parked on the stalled socket and holds the send side. It
	// carries every publish so far, so while it is parked the publisher
	// can never have got past one full buffer, however long it is given.
	<-rec.wrote
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	if n, limit := published.Load(), int64(sendBufMax/one+1); n > limit {
		t.Fatalf("%d publishes returned against a stalled socket, want the publisher blocked by %d", n, limit)
	}
	rec.mu.Lock()
	rec.stall = nil
	rec.mu.Unlock()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rec.awaitBytes(t, total*one)
	sizes, _ := rec.snapshot()
	for _, n := range sizes {
		if n > sendBufMax+one {
			t.Fatalf("a write of %d bytes: the buffer grew past %d + one message (%d)", n, sendBufMax, one)
		}
	}
}

// TestBadPublishPoisonsNothing: a property that cannot be encoded fails
// its own Publish synchronously and leaves the pending frames of the
// publishes around it intact.
func TestBadPublishPoisonsNothing(t *testing.T) {
	c, ch, rec := dialRecorded(t, false)
	good := Publishing{MessageID: "good", Body: make([]byte, 1024)}
	bad := Publishing{ContentType: strings.Repeat("x", 300), Body: make([]byte, 1024)}
	rec.mark()
	if err := ch.Publish("", "sb-q", false, false, good); err != nil {
		t.Fatal(err)
	}
	if err := ch.Publish("", "sb-q", false, false, bad); err != wire.ErrShortStrTooLong {
		t.Fatalf("bad publish: err=%v, want %v", err, wire.ErrShortStrTooLong)
	}
	if err := ch.Publish("", "sb-q", false, false, good); err != nil {
		t.Fatal(err)
	}
	q, err := ch.QueueDeclare("sb-q", false, false, false, false, nil)
	if err != nil || q.Messages != 2 {
		t.Fatalf("after good, bad, good: %d messages queued (err=%v), want 2", q.Messages, err)
	}
	want := append(bytes.Repeat(wantPublish(c, ch, good), 2), methodFrame(ch.id, &wire.QueueDeclare{Queue: "sb-q"})...)
	if _, stream := rec.snapshot(); !bytes.Equal(stream, want) {
		t.Fatalf("stream of %d bytes, want the two good publishes and the declare (%d)", len(stream), len(want))
	}
}

// TestNoFlushGoroutineOutlivesClose: the scheduled flush is a goroutine
// per batch, not per connection; with the connection closed and the
// broker gone, the process is back to the goroutines it started with.
func TestNoFlushGoroutineOutlivesClose(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := broker.Listen(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch, err := c.Channel()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := ch.Publish("", "nowhere", false, false, Publishing{Body: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	s.Close()
	waitFor(t, "goroutines back to the baseline", func() bool { return runtime.NumGoroutine() <= base })
}
