package amqp_test

// The send buffer against the two ways a connection ends: a transport
// cut mid-burst (nothing encoded for the dead transport may reach the new
// one, every publish is still confirmed once) and Close right behind a
// burst (the deferred publishes precede the close method).

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/wire"
)

// tap is a path hop that keeps, per dialed transport, every byte the
// client got onto the socket.
type tap struct {
	mu    sync.Mutex
	conns []*tapConn
}

type tapConn struct {
	net.Conn
	mu     sync.Mutex
	stream bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.stream.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (tp *tap) Hop() transport.Hop {
	return transport.HopFunc("tap", func(next transport.DialFunc) transport.DialFunc {
		return func(network, addr string) (net.Conn, error) {
			c, err := next(network, addr)
			if err != nil {
				return nil, err
			}
			tc := &tapConn{Conn: c}
			tp.mu.Lock()
			tp.conns = append(tp.conns, tc)
			tp.mu.Unlock()
			return tc, nil
		}
	})
}

// tapped is what one transport carried: the first frame on a channel
// after the connection handshake, the message id of every publish whose
// frames all made it onto the socket, in wire order, how often each
// consumer tag was subscribed, and the tag of every basic.ack.
type tapped struct {
	first     wire.Method
	published []uint64
	consumes  map[string]int
	acks      []uint64
}

func (tp *tap) transports(t *testing.T) []tapped {
	t.Helper()
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var out []tapped
	for i, c := range tp.conns {
		c.mu.Lock()
		stream := append([]byte(nil), c.stream.Bytes()...)
		c.mu.Unlock()
		if len(stream) < 8 {
			continue // cut before the protocol header
		}
		tr := tapped{consumes: map[string]int{}}
		var id uint64 // of the publish being assembled; 0 = none
		var left uint64
		fr := wire.NewFrameReader(bytes.NewReader(stream[8:]), 0)
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				break // the cut: a torn frame ends the record
			}
			if f.Channel == 0 {
				continue
			}
			switch f.Type {
			case wire.FrameMethod:
				m, err := wire.ParseMethod(f.Payload)
				if err != nil {
					t.Fatalf("transport %d: %v", i, err)
				}
				if tr.first == nil {
					tr.first = m
				}
				switch x := m.(type) {
				case *wire.BasicConsume:
					tr.consumes[x.ConsumerTag]++
				case *wire.BasicAck:
					tr.acks = append(tr.acks, x.DeliveryTag)
				}
			case wire.FrameHeader:
				h, err := wire.ParseContentHeader(f.Payload)
				if err != nil {
					t.Fatalf("transport %d: %v", i, err)
				}
				id, _ = strconv.ParseUint(h.Properties.MessageID, 10, 64)
				left = h.BodySize
			case wire.FrameBody:
				if left -= uint64(len(f.Payload)); left == 0 {
					tr.published = append(tr.published, id)
				}
			}
		}
		out = append(out, tr)
	}
	return out
}

// TestLinkCutMidBurstDropsTheSendBuffer pipelines small confirm-mode
// publishes through a fault injector and cuts the link part-way, on a
// seeded schedule: per seed, one to three ResetConns or Flap cuts at
// random points of the burst, with a manual-ack consumer on the same
// connection. Whatever sat in the send buffer at a cut was encoded for the
// dead transport: each new one must open with the replay (channel.open
// first, publishes in ascending sequence, none twice, no consumer tag
// subscribed twice), every publish must be confirmed exactly once and
// consumed at least once, and the queue must hold every sequence number —
// more than once only where the replay legitimately resent a publish
// whose confirm the cut swallowed, so never more often than transports
// carried it. The run ends in Close with confirms outstanding, which
// closes the listener and the delivery channel and returns every loan.
func TestLinkCutMidBurstDropsTheSendBuffer(t *testing.T) {
	const total, tail = 400, 64
	body := bytes.Repeat([]byte{0xC3}, 256)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cuts := map[int]func(in *transport.Injector){}
			for n := 1 + rng.Intn(3); len(cuts) < n; {
				at := 50 + rng.Intn(total-100)
				if rng.Intn(2) == 0 {
					cuts[at] = (*transport.Injector).ResetConns
				} else {
					d := time.Duration(5+rng.Intn(20)) * time.Millisecond
					cuts[at] = func(in *transport.Injector) { in.Flap(d) }
				}
			}
			s := startBroker(t, broker.Config{})
			base := wire.LoanedBytes()
			in, tp := transport.NewInjector(), &tap{}
			conn, err := amqp.DialConfig("amqp://"+s.Addr(), amqp.Config{
				Dial:      transport.Path{in.Hop(), tp.Hop()}.Dial(),
				Reconnect: testPolicy(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ch := openChannel(t, conn)
			if err := ch.ExchangeDeclare("cut-x", "fanout", false, false, false, false, nil); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"cut-q", "cut-c"} {
				if _, err := ch.QueueDeclare(q, false, false, false, false, nil); err != nil {
					t.Fatal(err)
				}
				if err := ch.QueueBind(q, "", "cut-x", false, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := ch.Confirm(false); err != nil {
				t.Fatal(err)
			}
			confirms := ch.NotifyPublish(make(chan amqp.Confirmation, total))

			cch := openChannel(t, conn)
			if err := cch.Qos(32, 0, false); err != nil {
				t.Fatal(err)
			}
			deliveries, err := cch.Consume("cut-c", "cut-consumer", false, false, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			var consumedMu sync.Mutex
			consumed := map[uint64]bool{}
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				for d := range deliveries {
					id, _ := strconv.ParseUint(d.MessageID, 10, 64)
					consumedMu.Lock()
					consumed[id] = true
					consumedMu.Unlock()
					d.Ack(false) // one acked on a dead transport is dropped and redelivered
				}
			}()

			publish := func(i int) {
				t.Helper()
				if err := ch.Publish("cut-x", "", false, false, amqp.Publishing{MessageID: strconv.Itoa(i), Body: body}); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
			}
			for i := 1; i <= total; i++ {
				if cut := cuts[i]; cut != nil {
					cut(in)
				}
				publish(i)
			}
			confirmed := map[uint64]bool{}
			timeout := time.After(30 * time.Second)
			for len(confirmed) < total {
				select {
				case cf, ok := <-confirms:
					if !ok || !cf.Ack || confirmed[cf.DeliveryTag] || cf.DeliveryTag < 1 || cf.DeliveryTag > total {
						t.Fatalf("confirm %+v (open=%v, seen before=%v)", cf, ok, confirmed[cf.DeliveryTag])
					}
					confirmed[cf.DeliveryTag] = true
				case <-timeout:
					t.Fatalf("%d of %d publishes confirmed", len(confirmed), total)
				}
			}
			if conn.Reconnects() == 0 {
				t.Fatal("the cuts never made the connection reconnect")
			}
			waitFor(t, "every publish consumed", func() bool {
				consumedMu.Lock()
				defer consumedMu.Unlock()
				return len(consumed) >= total
			})

			// Close behind a burst whose confirms are still outstanding.
			for i := total + 1; i <= total+tail; i++ {
				publish(i)
			}
			closed := make(chan error, 1)
			go func() { closed <- conn.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close with confirms outstanding never returned")
			}
			for range confirms {
			}
			<-consumerDone

			carried := map[uint64]int{}
			for i, tr := range tp.transports(t) {
				if _, ok := tr.first.(*wire.ChannelOpen); tr.first != nil && !ok {
					t.Fatalf("transport %d opens with %T on a channel, want channel.open: a frame of the old transport leaked", i, tr.first)
				}
				for j, id := range tr.published {
					if j > 0 && id <= tr.published[j-1] {
						t.Fatalf("transport %d carries publish %d after %d, want each once, ascending", i, id, tr.published[j-1])
					}
					carried[id]++
				}
				for tag, n := range tr.consumes {
					if n > 1 {
						t.Fatalf("transport %d subscribes consumer %q %d times", i, tag, n)
					}
				}
			}

			drain := dial(t, s)
			dch := openChannel(t, drain)
			q, err := dch.QueueDeclare("cut-q", false, false, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			drained, err := dch.Consume("cut-q", "", true, false, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			queued := map[uint64]int{}
			for n := 0; n < q.Messages; n++ {
				select {
				case d := <-drained:
					id, _ := strconv.ParseUint(d.MessageID, 10, 64)
					queued[id]++
				case <-time.After(10 * time.Second):
					t.Fatalf("drained %d of %d queued messages", n, q.Messages)
				}
			}
			for id := uint64(1); id <= total; id++ {
				if queued[id] < 1 || queued[id] > carried[id] {
					t.Fatalf("publish %d is queued %d times and was carried by %d transport(s)", id, queued[id], carried[id])
				}
			}
			vh := s.VHost("/")
			for _, q := range []string{"cut-q", "cut-c"} {
				if _, err := vh.DeleteQueue(q, false, false); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "loans back to the baseline", func() bool { return wire.LoanedBytes() == base })
		})
	}
}

// TestCloseFlushesDeferredPublishes: Close goes through the inline path,
// so 1000 small unconfirmed publishes followed at once by Close — of the
// channel, of the connection — are all queued.
func TestCloseFlushesDeferredPublishes(t *testing.T) {
	const total = 1000
	body := make([]byte, 512)
	closers := []struct {
		name  string
		close func(c *amqp.Connection, ch *amqp.Channel) error
	}{
		{"channel", func(_ *amqp.Connection, ch *amqp.Channel) error { return ch.Close() }},
		{"connection", func(c *amqp.Connection, _ *amqp.Channel) error { return c.Close() }},
	}
	for _, cl := range closers {
		t.Run(cl.name, func(t *testing.T) {
			s := startBroker(t, broker.Config{})
			watch := dial(t, s)
			wch := openChannel(t, watch)
			if _, err := wch.QueueDeclare("close-q", false, false, false, false, nil); err != nil {
				t.Fatal(err)
			}
			conn := dial(t, s)
			ch := openChannel(t, conn)
			for i := 0; i < total; i++ {
				if err := ch.Publish("", "close-q", false, false, amqp.Publishing{Body: body}); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.close(conn, ch); err != nil {
				t.Fatal(err)
			}
			// The wait is the deliveries themselves: a consumer on another
			// connection sees all 1000.
			deliveries, err := wch.Consume("close-q", "", true, false, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < total; n++ {
				select {
				case <-deliveries:
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d publishes made it to the queue before the close", n, total)
				}
			}
		})
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
	c, err := amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch, err := c.Channel()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := ch.Publish("", "nowhere", false, false, amqp.Publishing{Body: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	s.Close()
	waitFor(t, "goroutines back to the baseline", func() bool { return runtime.NumGoroutine() <= base })
}
