package broker

// The large-body data path end to end: a publish borrows its body, broker
// ingest and client deliveries recycle pooled buffers up to 4 MiB, and a
// content triplet on a connection without writev leaves in one write.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/wire"
)

// countedBroker serves AMQP on a listener of its own whose accepted
// sockets count their writes, and hands out a client config whose dialed
// sockets count theirs into the same counter (under TLS: records).
type countedBroker struct {
	url    string
	cfg    amqp.Config
	writes *atomic.Int64
}

func newCountedBroker(tb testing.TB, secure bool) *countedBroker {
	tb.Helper()
	cb := &countedBroker{writes: new(atomic.Int64)}
	var cfg Config
	scheme := "amqp"
	if secure {
		id, err := tlsutil.SelfSigned("largebody-test", "127.0.0.1")
		if err != nil {
			tb.Fatal(err)
		}
		cfg.TLS = id.ServerConfig()
		cb.cfg.TLS = id.ClientConfig("127.0.0.1")
		scheme = "amqps"
	}
	cfg.Addr = "127.0.0.1:0"
	s, err := Listen(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	served := make(chan *srvConn, 8) // one per accepted connection; tests dial two
	go func() {
		defer close(served)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sc := newSrvConn(s, &countingConn{Conn: c, writes: cb.writes})
			served <- sc
			go sc.serve()
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		for sc := range served {
			sc.shutdown()
		}
		s.Close()
	})
	cb.url = fmt.Sprintf("%s://guest:guest@%s/", scheme, ln.Addr())
	cb.cfg.Dial = func(network, addr string) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, writes: cb.writes}, nil
	}
	return cb
}

// bodyPump is one producer connection and one manual-ack consumer
// connection on a queue of a countedBroker.
type bodyPump struct {
	tb         testing.TB
	queue      string
	window     int
	pub, con   *amqp.Channel
	deliveries <-chan amqp.Delivery
}

func (cb *countedBroker) open(tb testing.TB, queue string, window int) *bodyPump {
	tb.Helper()
	p := &bodyPump{tb: tb, queue: queue, window: window}
	for _, ch := range []**amqp.Channel{&p.pub, &p.con} {
		c, err := amqp.DialConfig(cb.url, cb.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { c.Close() })
		if *ch, err = c.Channel(); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := p.pub.QueueDeclare(queue, false, false, false, false, nil); err != nil {
		tb.Fatal(err)
	}
	if err := p.con.Qos(window, 0, false); err != nil {
		tb.Fatal(err)
	}
	var err error
	if p.deliveries, err = p.con.Consume(queue, "", false, false, false, false, nil); err != nil {
		tb.Fatal(err)
	}
	return p
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// run takes n messages of the given body through publish → deliver → ack
// with at most window in flight, checking every delivery's CRC.
func (p *bodyPump) run(body []byte, n int) {
	p.tb.Helper()
	want := crc32.Checksum(body, castagnoli)
	credits := make(chan struct{}, p.window)
	for i := 0; i < p.window; i++ {
		credits <- struct{}{}
	}
	pubErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			<-credits
			if err := p.pub.Publish("", p.queue, false, false, amqp.Publishing{Body: body}); err != nil {
				pubErr <- err
				return
			}
		}
	}()
	timeout := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case d := <-p.deliveries:
			if len(d.Body) != len(body) || crc32.Checksum(d.Body, castagnoli) != want {
				p.tb.Fatalf("delivery %d: %d bytes, checksum mismatch", i, len(d.Body))
			}
			if err := d.Ack(false); err != nil {
				p.tb.Fatal(err)
			}
			credits <- struct{}{}
		case err := <-pubErr:
			p.tb.Fatal(err)
		case <-timeout:
			p.tb.Fatalf("delivery %d of %d never arrived", i, n)
		}
	}
	// A synchronous call behind the last ack: the broker has settled it.
	if _, err := p.con.QueueDeclare(p.queue, false, false, false, false, nil); err != nil {
		p.tb.Fatal(err)
	}
}

// TestLargeBodiesRecycle: once warm, 100 × 1 MiB publish → deliver → ack
// allocates no body buffer on either side — wire.bufpool_misses stands
// still — and every loan is back when the connections are gone.
func TestLargeBodiesRecycle(t *testing.T) {
	// One P, so sync.Pool's per-P caches are one cache and "warm" is a
	// state, not a probability.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := wire.LoanedBytes()
	cb := newCountedBroker(t, false)
	body := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, 1<<18)
	misses := metrics.Default.Counter("wire.bufpool_misses")
	// One message in flight: every warm buffer is taken once per message,
	// so none sits out two GC cycles and is dropped from its pool.
	p := cb.open(t, "recycle-q", 1)
	p.run(body, 8)
	before := misses.Load()
	p.run(body, 100)
	if got := misses.Load() - before; got != 0 && !raceEnabled {
		t.Fatalf("wire.bufpool_misses advanced by %d over 100 warm 1 MiB messages, want 0", got)
	}
	checkBalance(t, "after 100 x 1 MiB", base)
}

// TestContentTripletIsOneSocketWrite: on a broker connection that is not
// a raw TCP socket (TLS, or a wrapped plain one) a 4 KiB or 12 KiB
// delivery costs one socket write, not one per iovec entry.
func TestContentTripletIsOneSocketWrite(t *testing.T) {
	// crypto/tls starts a connection with small records and grows them, so
	// the first deliveries only warm the connection up.
	const warm, counted = 16, 8
	for _, l := range confirmListeners {
		for _, size := range []int{4 << 10, 12 << 10} {
			t.Run(fmt.Sprintf("%s/%d", l.name, size), func(t *testing.T) {
				p := newConfirmPeer(t, Config{}, l.secure)
				p.declare("onewrite-q", nil)
				for i := 0; i < warm+counted; i++ {
					p.w.AppendContentFrames(1, &wire.BasicPublish{RoutingKey: "onewrite-q"}, &wire.Properties{}, make([]byte, size), 0)
				}
				p.flush()
				p.readAcks(warm + counted)
				// Prefetch 1: each delivery is a write of its own, and the
				// ack that releases the next one draws no reply.
				p.call(1, &wire.BasicQos{PrefetchCount: 1}, &wire.BasicQosOk{})
				p.call(1, &wire.BasicConsume{Queue: "onewrite-q", ConsumerTag: "c"}, &wire.BasicConsumeOk{})
				var before int64
				for i := 0; i < warm+counted; i++ {
					m := p.next()
					d, ok := m.(*wire.BasicDeliver)
					if !ok {
						t.Fatalf("got %T, want basic.deliver", m)
					}
					for got := 0; got < size; {
						f, err := p.fr.ReadFrame()
						if err != nil {
							t.Fatal(err)
						}
						if f.Type == wire.FrameBody {
							got += len(f.Payload)
						}
					}
					if i == warm-1 {
						before = p.srv.writes.Load()
					}
					if i < warm+counted-1 {
						p.method(1, &wire.BasicAck{DeliveryTag: d.DeliveryTag})
						p.flush()
					}
				}
				if writes := p.srv.writes.Load() - before; writes != counted {
					t.Fatalf("%d deliveries of %d B took %d socket writes, want one each", counted, size, writes)
				}
			})
		}
	}
}

// TestBodyFrameOverrunEndsConnection: body frames carrying more than the
// header declared are a framing error — the connection ends, nothing is
// routed, and the half-built body's loan is returned.
func TestBodyFrameOverrunEndsConnection(t *testing.T) {
	for _, frames := range [][]int{{11}, {6, 6}} {
		base := wire.LoanedBytes()
		p := newConfirmPeer(t, Config{}, false)
		p.declare("overrun-q", nil)
		p.method(1, &wire.BasicPublish{RoutingKey: "overrun-q"})
		header, err := wire.EncodeContentHeader(&wire.ContentHeader{ClassID: wire.ClassBasic, BodySize: 10})
		if err != nil {
			t.Fatal(err)
		}
		p.w.AppendRawFrame(wire.FrameHeader, 1, header)
		for _, n := range frames {
			p.w.AppendRawFrame(wire.FrameBody, 1, make([]byte, n))
		}
		p.flush()
		if f, err := p.fr.ReadFrame(); err == nil {
			t.Fatalf("frames %v: broker answered an overrunning body with frame type %d, want the connection closed", frames, f.Type)
		}
		deadline := time.Now().Add(5 * time.Second)
		for wire.LoanedBytes() != base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond) // teardown follows the close the peer saw
		}
		checkBalance(t, fmt.Sprintf("after overrun %v", frames), base)
	}
}

// benchPublishDeliver times the pump on a fresh counted broker: ns/op,
// B/op and allocs/op are per message and include both clients; writes/msg
// is every socket write of both clients and the broker (TLS records under
// tls). Run at a fixed -benchtime Nx.
func benchPublishDeliver(b *testing.B, secure bool, queue string, body []byte, window int) {
	cb := newCountedBroker(b, secure)
	p := cb.open(b, queue, window)
	p.run(body, 2*window)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	before := cb.writes.Load()
	b.ResetTimer()
	p.run(body, b.N)
	b.StopTimer()
	b.ReportMetric(float64(cb.writes.Load()-before)/float64(b.N), "writes/msg")
}

// BenchmarkLargeBodyPublishDeliver drives 1 MiB messages from an amqp
// producer through a broker to a manual-ack amqp consumer, four in
// flight, over counted sockets. A per-message body allocation shows as
// ~1 MiB more B/op each, a body copy as ns/op.
func BenchmarkLargeBodyPublishDeliver(b *testing.B) {
	body := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, 1<<18)
	for _, l := range confirmListeners {
		b.Run(l.name, func(b *testing.B) {
			benchPublishDeliver(b, l.secure, "bench-large-q", body, 4)
		})
	}
}

// BenchmarkSmallPublishDeliver is the same pump at 1 KiB, where what a
// message costs is calls, not bytes: windows of 1, 8 and 64 messages in
// flight. The test consumer's ack per message is one of the writes, so
// the floor with every publish and delivery coalesced is ~1 writes/msg.
// At window 1 nothing can share a write and ns/op is the one-in-flight
// round trip, which a deferred flush must not lengthen.
func BenchmarkSmallPublishDeliver(b *testing.B) {
	body := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, 256)
	for _, l := range confirmListeners {
		for _, window := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/w%d", l.name, window), func(b *testing.B) {
				benchPublishDeliver(b, l.secure, "bench-small-q", body, window)
			})
		}
	}
}
