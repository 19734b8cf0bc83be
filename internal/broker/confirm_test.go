package broker

// Publisher-confirm batching, driven with raw frames through a connection
// whose broker-side socket counts writes: positive confirms are deferred
// to the serve goroutine's next kernel read and leave in one write, so
// what a test pipelines in one client write comes back as one run.

import (
	"crypto/tls"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/wire"
)

// countingConn counts the Write calls that reach a socket, into a counter
// several connections may share, and the Read calls that return data.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
	reads  atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// confirmPeer is a raw-frame client on channel 1, in confirm mode, of a
// connection the broker serves through a countingConn.
type confirmPeer struct {
	t   testing.TB
	c   net.Conn
	fr  *wire.FrameReader
	srv *countingConn
	w   *wire.Writer
	// served is closed once the broker's serve goroutine has returned,
	// which is after the connection's teardown.
	served chan struct{}

	resolved map[uint64]bool // confirm tags above frontier with a verdict so far
	frontier uint64          // every tag at or below it has its verdict
	frames   int             // basic.ack / basic.nack frames read
}

// confirmListeners names the two listener kinds every confirm test runs on.
var confirmListeners = []struct {
	name   string
	secure bool
}{{"plain", false}, {"tls", true}}

func newConfirmPeer(t testing.TB, cfg Config, secure bool) *confirmPeer {
	t.Helper()
	var id *tlsutil.Identity
	if secure {
		var err error
		if id, err = tlsutil.SelfSigned("confirm-test", "127.0.0.1"); err != nil {
			t.Fatal(err)
		}
		cfg.TLS = id.ServerConfig()
	}
	cfg.Addr = "127.0.0.1:0"
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// A socket pair of the test's own, so the broker side can be wrapped.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p := &confirmPeer{t: t, c: cli, srv: &countingConn{Conn: raw, writes: new(atomic.Int64)}, w: wire.NewWriter(), resolved: map[uint64]bool{}}
	sc := newSrvConn(s, p.srv)
	p.served = make(chan struct{})
	go func() { sc.serve(); close(p.served) }()
	t.Cleanup(func() { p.c.Close(); sc.shutdown(); <-p.served })

	if secure {
		p.c = tls.Client(cli, id.ClientConfig("127.0.0.1"))
	}
	p.c.SetDeadline(time.Now().Add(20 * time.Second))
	p.fr = wire.NewFrameReader(p.c, 0)
	if err := wire.WriteProtocolHeader(p.c); err != nil {
		t.Fatal(err)
	}
	p.expect(&wire.ConnectionStart{})
	p.call(0, &wire.ConnectionStartOk{Mechanism: "PLAIN", Locale: "en_US"}, &wire.ConnectionTune{})
	p.method(0, &wire.ConnectionTuneOk{ChannelMax: 2047, FrameMax: wire.DefaultFrameMax})
	p.call(0, &wire.ConnectionOpen{VirtualHost: "/"}, &wire.ConnectionOpenOk{})
	p.call(1, &wire.ChannelOpen{}, &wire.ChannelOpenOk{})
	p.call(1, &wire.ConfirmSelect{}, &wire.ConfirmSelectOk{})
	return p
}

// method queues one method frame; flush sends everything queued in one
// client write, which reaches the broker in one kernel read.
func (p *confirmPeer) method(channel uint16, m wire.Method) {
	p.w.AppendMethodFrame(channel, m)
}

func (p *confirmPeer) publish(exchange, key string, mandatory bool) {
	p.w.AppendContentFrames(1, &wire.BasicPublish{Exchange: exchange, RoutingKey: key, Mandatory: mandatory},
		&wire.Properties{}, []byte("confirm-me"), 0)
}

func (p *confirmPeer) flush() {
	p.t.Helper()
	if err := p.w.FlushFrames(p.c, 0); err != nil {
		p.t.Fatal(err)
	}
}

// next reads the next method frame, skipping heartbeats and the header and
// body frames of a basic.return.
func (p *confirmPeer) next() wire.Method {
	p.t.Helper()
	for {
		f, err := p.fr.ReadFrame()
		if err != nil {
			p.t.Fatalf("read frame: %v", err)
		}
		if f.Type != wire.FrameMethod {
			continue
		}
		m, err := wire.ParseMethod(f.Payload)
		if err != nil {
			p.t.Fatal(err)
		}
		return m
	}
}

func (p *confirmPeer) expect(want wire.Method) {
	p.t.Helper()
	got := p.next()
	wc, wm := want.ID()
	if gc, gm := got.ID(); gc != wc || gm != wm {
		p.t.Fatalf("got %T, want %T", got, want)
	}
}

func (p *confirmPeer) call(channel uint16, m, reply wire.Method) {
	p.t.Helper()
	p.method(channel, m)
	p.flush()
	p.expect(reply)
}

func (p *confirmPeer) declare(queue string, args wire.Table) {
	p.t.Helper()
	p.call(1, &wire.QueueDeclare{Queue: queue, Arguments: args}, &wire.QueueDeclareOk{})
}

// verdict applies one confirm frame. A single verdict must be the tag's
// first; a multiple-ack resolves whatever below it is still open.
func (p *confirmPeer) verdict(tag uint64, multiple bool) {
	p.t.Helper()
	p.frames++
	if !multiple {
		if p.isResolved(tag) {
			p.t.Errorf("tag %d confirmed twice", tag)
		}
		p.resolved[tag] = true
	} else if tag > p.frontier {
		p.frontier = tag
	}
	for p.resolved[p.frontier+1] {
		p.frontier++
		delete(p.resolved, p.frontier)
	}
}

func (p *confirmPeer) isResolved(tag uint64) bool {
	return tag <= p.frontier || p.resolved[tag]
}

// requireResolved fails unless every tag in [1, through] has its verdict.
func (p *confirmPeer) requireResolved(through uint64, before string) {
	p.t.Helper()
	if p.frontier < through {
		p.t.Fatalf("%s arrived before the confirm of publish %d", before, p.frontier+1)
	}
}

// readAcks reads confirm frames until every tag in [1, through] is
// resolved, failing on a nack or any other method.
func (p *confirmPeer) readAcks(through uint64) {
	p.t.Helper()
	for p.frontier < through {
		ack, ok := p.next().(*wire.BasicAck)
		if !ok {
			p.t.Fatalf("expected basic.ack")
		}
		p.verdict(ack.DeliveryTag, ack.Multiple)
	}
}

// TestConfirmsCoalesce: N publishes pipelined in one client write are
// confirmed in far fewer than N broker writes, on both listener kinds.
func TestConfirmsCoalesce(t *testing.T) {
	const n = 64
	for _, l := range confirmListeners {
		t.Run(l.name, func(t *testing.T) {
			p := newConfirmPeer(t, Config{}, l.secure)
			p.declare("coalesce-q", nil)
			before := p.srv.writes.Load()
			for i := 0; i < n; i++ {
				p.publish("", "coalesce-q", false)
			}
			p.flush()
			p.readAcks(n)
			if writes := p.srv.writes.Load() - before; writes*4 > n {
				t.Fatalf("%d publishes confirmed in %d writes, want at most %d", n, writes, n/4)
			}
			if p.frames*4 > n {
				t.Fatalf("%d publishes confirmed by %d frames, want at most %d", n, p.frames, n/4)
			}
		})
	}
}

// TestLoneConfirmIsOneSingleAck: at window 1 nothing changes on the wire —
// each publish is answered by exactly one write carrying one plain ack.
func TestLoneConfirmIsOneSingleAck(t *testing.T) {
	for _, l := range confirmListeners {
		t.Run(l.name, func(t *testing.T) {
			p := newConfirmPeer(t, Config{}, l.secure)
			p.declare("lone-q", nil)
			for tag := uint64(1); tag <= 3; tag++ {
				before := p.srv.writes.Load()
				p.publish("", "lone-q", false)
				p.flush()
				ack, ok := p.next().(*wire.BasicAck)
				if !ok || ack.DeliveryTag != tag || ack.Multiple {
					t.Fatalf("publish %d answered by %+v, want a single ack", tag, ack)
				}
				if writes := p.srv.writes.Load() - before; writes != 1 {
					t.Fatalf("publish %d answered in %d writes, want 1", tag, writes)
				}
			}
		})
	}
}

// TestConfirmsPrecedeOtherFrames: a nack, a mandatory basic.return and a
// channel exception each arrive after the confirms of the publishes that
// preceded them, though those confirms were still pending when the broker
// produced the frame.
func TestConfirmsPrecedeOtherFrames(t *testing.T) {
	for _, l := range confirmListeners {
		t.Run(l.name, func(t *testing.T) {
			p := newConfirmPeer(t, Config{}, l.secure)
			p.declare("order-q", nil)
			p.declare("order-full", wire.Table{"x-max-length": int32(1), "x-overflow": OverflowRejectPublish})
			p.publish("", "order-full", false) // 1: fills the queue
			p.publish("", "order-q", false)    // 2
			p.publish("", "order-q", false)    // 3
			p.publish("", "order-full", false) // 4: rejected, nack
			p.publish("", "order-q", false)    // 5
			p.publish("", "nowhere", true)     // 6: unroutable, return then ack
			p.publish("missing-x", "k", false) // 7: no such exchange, channel.close
			p.flush()
			for {
				switch m := p.next().(type) {
				case *wire.BasicAck:
					if covers4 := m.DeliveryTag == 4 || (m.Multiple && m.DeliveryTag > 4); covers4 && !p.isResolved(4) {
						t.Fatalf("ack %+v covers the rejected publish 4", m)
					}
					p.verdict(m.DeliveryTag, m.Multiple)
				case *wire.BasicNack:
					if m.DeliveryTag != 4 || m.Multiple {
						t.Fatalf("unexpected nack %+v", m)
					}
					p.requireResolved(3, "nack of publish 4")
					p.verdict(4, false)
				case *wire.BasicReturn:
					p.requireResolved(5, "return of publish 6")
					if p.isResolved(6) {
						t.Fatal("publish 6 confirmed before its return")
					}
				case *wire.ChannelClose:
					if m.ReplyCode != wire.ReplyNotFound {
						t.Fatalf("channel closed with %d %s", m.ReplyCode, m.ReplyText)
					}
					p.requireResolved(6, "channel.close")
					return
				default:
					t.Fatalf("unexpected %T", m)
				}
			}
		})
	}
}

// heldConfirm is one confirm-bridged forward a bridgeHook is sitting on.
type heldConfirm struct {
	target ConfirmTarget
	seq    uint64
}

// bridgeHook is a ClusterHook that masters every queue locally except
// "remote", whose publishes it swallows and reports on held — the test
// resolves them when it chooses, as a federation link's read loop would.
type bridgeHook struct{ held chan heldConfirm }

func (h *bridgeHook) Lookup(vhost, queue string) (string, bool) {
	return "elsewhere:1", queue != "remote"
}
func (h *bridgeHook) RegisterQueue(vhost, queue string, durable bool)    {}
func (h *bridgeHook) EnsureRemoteQueue(string, string, bool) error       { return nil }
func (h *bridgeHook) NoteRedirect(vhost, queue string)                   {}
func (h *bridgeHook) Replicated(vhost, queue string) bool                { return false }
func (h *bridgeHook) ReplicateSettle(string, string, uint64, []uint64)   {}
func (h *bridgeHook) ApplyMirror(string, string, string, *Message) error { return nil }
func (h *bridgeHook) ReplicateAppend(vhost, queue string, off uint64, m *Message, target ConfirmTarget, seq uint64) {
}
func (h *bridgeHook) ForwardPublish(vhost, queue string, m *Message, target ConfirmTarget, seq uint64) error {
	h.held <- heldConfirm{target, seq}
	return nil
}

// TestMultipleAckNeverCoversBridgedConfirm: while a federated publish of
// the channel waits on ClusterConfirm, local confirms go out singly — a
// multiple-ack would claim the open tag — and batching resumes once the
// bridged verdict is on the wire.
func TestMultipleAckNeverCoversBridgedConfirm(t *testing.T) {
	for _, l := range confirmListeners {
		t.Run(l.name, func(t *testing.T) {
			hook := &bridgeHook{held: make(chan heldConfirm, 1)}
			p := newConfirmPeer(t, Config{Cluster: hook}, l.secure)
			p.declare("bridge-q", nil)
			p.publish("", "bridge-q", false) // 1
			p.publish("", "remote", false)   // 2: bridged, held
			p.publish("", "bridge-q", false) // 3
			p.publish("", "bridge-q", false) // 4
			p.flush()
			for _, want := range []uint64{1, 3, 4} {
				ack, ok := p.next().(*wire.BasicAck)
				if !ok || ack.DeliveryTag != want || ack.Multiple {
					t.Fatalf("got %+v, want single ack %d while publish 2 is open", ack, want)
				}
				p.verdict(ack.DeliveryTag, false)
			}
			held := <-hook.held
			if held.seq != 2 {
				t.Fatalf("bridged seq %d, want 2", held.seq)
			}
			held.target.ClusterConfirm(held.seq, true)
			if ack, ok := p.next().(*wire.BasicAck); !ok || ack.DeliveryTag != 2 || ack.Multiple {
				t.Fatalf("got %+v, want the bridged single ack 2", ack)
			}
			p.verdict(2, false)

			p.publish("", "bridge-q", false) // 5
			p.publish("", "bridge-q", false) // 6
			p.flush()
			if ack, ok := p.next().(*wire.BasicAck); !ok || ack.DeliveryTag != 6 || !ack.Multiple {
				t.Fatalf("got %+v, want multiple ack 6 once nothing is bridged", ack)
			}

			// An open tag stops the multiple-ack prefix, not the batching:
			// the acks before it still share a frame.
			p.publish("", "bridge-q", false) // 7
			p.publish("", "bridge-q", false) // 8
			p.publish("", "remote", false)   // 9: bridged, held
			p.publish("", "bridge-q", false) // 10
			p.flush()
			if ack, ok := p.next().(*wire.BasicAck); !ok || ack.DeliveryTag != 8 || !ack.Multiple {
				t.Fatalf("got %+v, want multiple ack 8 before the open publish 9", ack)
			}
			if ack, ok := p.next().(*wire.BasicAck); !ok || ack.DeliveryTag != 10 || ack.Multiple {
				t.Fatalf("got %+v, want single ack 10 while publish 9 is open", ack)
			}
			held = <-hook.held
			if held.seq != 9 {
				t.Fatalf("bridged seq %d, want 9", held.seq)
			}
			held.target.ClusterConfirm(held.seq, true)
			if ack, ok := p.next().(*wire.BasicAck); !ok || ack.DeliveryTag != 9 || ack.Multiple {
				t.Fatalf("got %+v, want the bridged single ack 9", ack)
			}
		})
	}
}

// TestClusterConfirmAfterChannelReopen: a bridged verdict that arrives
// after its channel closed is dropped. The client reuses the id of a
// cleanly closed channel, so writing it would confirm the reopened
// channel's publish of the same tag with another publish's verdict.
func TestClusterConfirmAfterChannelReopen(t *testing.T) {
	for _, l := range confirmListeners {
		t.Run(l.name, func(t *testing.T) {
			hook := &bridgeHook{held: make(chan heldConfirm, 2)}
			p := newConfirmPeer(t, Config{Cluster: hook}, l.secure)
			p.publish("", "remote", false)
			p.flush()
			old := <-hook.held
			p.call(1, &wire.ChannelClose{}, &wire.ChannelCloseOk{})
			p.call(1, &wire.ChannelOpen{}, &wire.ChannelOpenOk{})
			p.call(1, &wire.ConfirmSelect{}, &wire.ConfirmSelectOk{})
			p.publish("", "remote", false)
			p.flush()
			cur := <-hook.held
			old.target.ClusterConfirm(old.seq, true)
			cur.target.ClusterConfirm(cur.seq, false)
			if m := p.next(); !reflect.DeepEqual(m, &wire.BasicNack{DeliveryTag: 1}) {
				t.Fatalf("first verdict on the reopened channel is %T %+v, want the nack of its own publish 1", m, m)
			}
		})
	}
}

// TestConsumeOkPrecedesDeliveries: with 100 messages ready, the first
// frame a basic.consume draws on its channel is basic.consume-ok. A
// delivery first would be read while the client's Consume still waits for
// its reply, and enough of them fill the consumer's buffer before Consume
// has returned it to anyone who drains it.
func TestConsumeOkPrecedesDeliveries(t *testing.T) {
	const ready = 100
	p := newConfirmPeer(t, Config{}, false)
	p.declare("ready-q", nil)
	for i := 0; i < ready; i++ {
		p.publish("", "ready-q", false)
	}
	p.flush()
	p.readAcks(ready)
	p.method(1, &wire.BasicConsume{Queue: "ready-q", ConsumerTag: "c"})
	p.flush()
	m := p.next()
	if _, ok := m.(*wire.BasicConsumeOk); !ok {
		t.Fatalf("first frame after basic.consume is %T, want basic.consume-ok", m)
	}
}

// TestPipelinedChannelMethodsAnsweredInOrder: one client write carries,
// for each of two channels, channel.open, confirm.select, queue.declare,
// basic.qos and basic.consume on a queue already holding messages. Each
// channel's replies come back in the order of its calls, and its
// consume-ok before the consumer's first delivery: what a client that
// writes calls without waiting for each reply, as the client's reconnect
// replay does, relies on.
func TestPipelinedChannelMethodsAnsweredInOrder(t *testing.T) {
	const ready, prefetch = 8, 4
	p := newConfirmPeer(t, Config{}, false)
	chans := []uint16{2, 3}
	queue := func(id uint16) string { return fmt.Sprintf("pipelined-%d", id) }
	for _, id := range chans {
		p.declare(queue(id), nil)
	}
	for _, id := range chans {
		for i := 0; i < ready; i++ {
			p.publish("", queue(id), false)
		}
	}
	p.flush()
	p.readAcks(uint64(len(chans) * ready))

	for _, id := range chans {
		p.method(id, &wire.ChannelOpen{})
		p.method(id, &wire.ConfirmSelect{})
		p.method(id, &wire.QueueDeclare{Queue: queue(id)})
		p.method(id, &wire.BasicQos{PrefetchCount: prefetch})
		p.method(id, &wire.BasicConsume{Queue: queue(id), ConsumerTag: "c"})
	}
	p.flush()
	replies := []wire.Method{&wire.ChannelOpenOk{}, &wire.ConfirmSelectOk{}, &wire.QueueDeclareOk{}, &wire.BasicQosOk{}, &wire.BasicConsumeOk{}}
	answered, delivered := map[uint16]int{}, map[uint16]int{}
	for delivered[chans[0]] < prefetch || delivered[chans[1]] < prefetch {
		f, err := p.fr.ReadFrame()
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if f.Type != wire.FrameMethod {
			continue // a delivery's header and body
		}
		m, err := wire.ParseMethod(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(*wire.BasicDeliver); ok {
			if answered[f.Channel] < len(replies) {
				t.Fatalf("channel %d: a delivery after %d of its %d replies", f.Channel, answered[f.Channel], len(replies))
			}
			delivered[f.Channel]++
			continue
		}
		n := answered[f.Channel]
		if n == len(replies) {
			t.Fatalf("channel %d: %T after every reply", f.Channel, m)
		}
		gc, gm := m.ID()
		if wc, wm := replies[n].ID(); gc != wc || gm != wm {
			t.Fatalf("channel %d: reply %d is %T, want %T", f.Channel, n+1, m, replies[n])
		}
		answered[f.Channel]++
	}
}

// TestPipelinedRepliesShareWrites: one client write carries, for each of
// two channels, channel.open, confirm.select, queue.declare and
// basic.qos. The broker appends its replies to the connection's send
// buffer and writes them before its next kernel read, so it answers the
// burst in no more socket writes than the kernel reads it took to
// receive it, not in one write per reply.
func TestPipelinedRepliesShareWrites(t *testing.T) {
	for _, l := range confirmListeners {
		t.Run(l.name, func(t *testing.T) {
			p := newConfirmPeer(t, Config{}, l.secure)
			chans := []uint16{2, 3}
			reads, writes := p.srv.reads.Load(), p.srv.writes.Load()
			for _, id := range chans {
				p.method(id, &wire.ChannelOpen{})
				p.method(id, &wire.ConfirmSelect{})
				p.method(id, &wire.QueueDeclare{Queue: fmt.Sprintf("share-%d", id)})
				p.method(id, &wire.BasicQos{PrefetchCount: 4})
			}
			p.flush()
			for range chans {
				for _, want := range []wire.Method{&wire.ChannelOpenOk{}, &wire.ConfirmSelectOk{}, &wire.QueueDeclareOk{}, &wire.BasicQosOk{}} {
					p.expect(want)
				}
			}
			reads, writes = p.srv.reads.Load()-reads, p.srv.writes.Load()-writes
			if writes > reads {
				t.Fatalf("%d replies took %d socket writes for a burst received in %d kernel reads", 4*len(chans), writes, reads)
			}
		})
	}
}

// BenchmarkPublishConfirmPipelined measures the broker's confirm path
// over a real socket: bursts of 64 publishes, each burst written at once
// and then awaited, so confirm coalescing shows as writes/msg (broker
// socket writes per publish) next to ns/op and allocs/op (which include
// this raw-frame client's own). Run at a fixed -benchtime Nx.
func BenchmarkPublishConfirmPipelined(b *testing.B) {
	const burst = 64
	p := newConfirmPeer(b, Config{}, false)
	// No consumer: drop-head keeps the queue bounded.
	p.declare("bench-confirm-q", wire.Table{"x-max-length": int32(1024)})
	b.ReportAllocs()
	before := p.srv.writes.Load()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		for i := 0; i < burst && sent < b.N; i++ {
			p.publish("", "bench-confirm-q", false)
			sent++
		}
		p.flush()
		p.readAcks(uint64(sent))
	}
	b.StopTimer()
	b.ReportMetric(float64(p.srv.writes.Load()-before)/float64(b.N), "writes/msg")
}
