package amqp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/wire"
)

// Internal tests for the client pool: placement policy and dispatch across
// a transport flap. They live inside the package so a test can target one
// physical connection's socket directly.

func poolBroker(t *testing.T) *broker.Server {
	t.Helper()
	s, err := broker.Listen(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// dropTransport hard-closes the connection's current socket, simulating a
// transport fault on this physical connection only.
func (c *Connection) dropTransport() {
	c.mu.Lock()
	raw := c.conn
	c.mu.Unlock()
	raw.Close()
}

func TestClientPoolPlacement(t *testing.T) {
	s := poolBroker(t)
	p := NewClientPool(PoolConfig{URL: "amqp://" + s.Addr(), SessionsPerConn: 4})
	defer p.Close()

	var sessions []*Session
	for i := 0; i < 10; i++ {
		sess, err := p.Session()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		sessions = append(sessions, sess)
	}
	if conns, open := p.Stats(); conns != 3 || open != 10 {
		t.Fatalf("got %d conns / %d sessions, want 3 / 10 (soft target 4)", conns, open)
	}

	// Sessions release their slot but never the shared connection.
	for _, sess := range sessions {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		sess.Close() // idempotent
	}
	if conns, open := p.Stats(); conns != 3 || open != 0 {
		t.Fatalf("after close: %d conns / %d sessions, want 3 / 0", conns, open)
	}

	// New sessions pack onto the warm connections instead of dialing.
	if _, err := p.Session(); err != nil {
		t.Fatal(err)
	}
	if conns, _ := p.Stats(); conns != 3 {
		t.Fatalf("reopen dialed a new connection: %d conns, want 3", conns)
	}
}

func TestClientPoolDialGate(t *testing.T) {
	s := poolBroker(t)
	p := NewClientPool(PoolConfig{
		URL:             "amqp://" + s.Addr(),
		SessionsPerConn: 2,
		DialGate:        func() bool { return false },
	})
	defer p.Close()

	// The gate refuses growth, so everything packs onto the first
	// connection (dialed ungated — a pool must carry at least one).
	for i := 0; i < 8; i++ {
		if _, err := p.Session(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if conns, open := p.Stats(); conns != 1 || open != 8 {
		t.Fatalf("got %d conns / %d sessions, want 1 / 8 under closed gate", conns, open)
	}
}

func TestClientPoolSiblingSharesConn(t *testing.T) {
	s := poolBroker(t)
	p := NewClientPool(PoolConfig{URL: "amqp://" + s.Addr(), SessionsPerConn: 1, MaxConns: 2})
	defer p.Close()

	a, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	sib, err := a.Sibling()
	if err != nil {
		t.Fatal(err)
	}
	if sib.Channel.conn != a.Channel.conn {
		t.Fatal("sibling landed on a different physical connection")
	}
	if _, open := p.Stats(); open != 2 {
		t.Fatalf("sibling not counted: %d sessions, want 2", open)
	}
	if err := sib.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Channel.conn.IsClosed() {
		t.Fatal("closing a sibling closed the shared connection")
	}
}

// fakeBroker completes the AMQP handshake on every connection it accepts
// and hands each channel method to answer, which appends the frames to
// reply with, if any, to w. With a nil answer it answers nothing, so a
// channel.open sent to it stays in flight until the client gives up on
// the connection.
func fakeBroker(t *testing.T, answer func(w *wire.Writer, channel uint16, m wire.Method)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				c.SetDeadline(time.Now().Add(20 * time.Second))
				fr := wire.NewFrameReader(c, 0)
				w := wire.NewWriter()
				w.AppendMethodFrame(0, &wire.ConnectionStart{Mechanisms: "PLAIN", Locales: "en_US"})
				if wire.ReadProtocolHeader(c) != nil || w.FlushFrames(c, 0) != nil {
					return
				}
				for {
					f, err := fr.ReadFrame()
					if err != nil {
						return // the client hung up
					}
					m, err := wire.ParseMethod(f.Payload)
					if f.Type != wire.FrameMethod || err != nil {
						continue
					}
					switch m.(type) {
					case *wire.ConnectionStartOk:
						w.AppendMethodFrame(0, &wire.ConnectionTune{ChannelMax: 2047, FrameMax: wire.DefaultFrameMax})
					case *wire.ConnectionOpen:
						w.AppendMethodFrame(0, &wire.ConnectionOpenOk{})
					default:
						if f.Channel != 0 && answer != nil {
							answer(w, f.Channel, m)
						}
					}
					if w.FlushFrames(c, 0) != nil {
						return
					}
				}
			}()
		}
	}()
	return "amqp://" + ln.Addr().String()
}

// TestClientPoolCloseDuringSessions closes a pool while Session calls are
// still opening their channels on it, as a run torn down mid-attach does:
// every call must fail rather than hang or hand out a session, and under
// -race Close must not read a connection's session count while an
// in-flight Session gives its slot back.
func TestClientPoolCloseDuringSessions(t *testing.T) {
	const n = 4
	opens := make(chan struct{}, n)
	p := NewClientPool(PoolConfig{URL: fakeBroker(t, func(_ *wire.Writer, _ uint16, m wire.Method) {
		if _, ok := m.(*wire.ChannelOpen); ok {
			opens <- struct{}{}
		}
	})})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.Session()
			errs <- err
		}()
	}
	// Every session is in flight once its channel.open reached the broker.
	for i := 0; i < n; i++ {
		<-opens
	}
	p.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("Session on a pool closed under it: err = %v, want ErrPoolClosed", err)
		}
	}
}

// TestPoolSharedConnFlapResumesOnlyItsSessions is the multiplexed
// reconnect contract: when one physical connection flaps, every session
// mapped onto it resumes — channel state, consumers, and unconfirmed
// publishes replay — while sessions on sibling connections never notice.
func TestPoolSharedConnFlapResumesOnlyItsSessions(t *testing.T) {
	s := poolBroker(t)
	p := NewClientPool(PoolConfig{
		URL: "amqp://" + s.Addr(),
		Config: Config{
			Reconnect: &ReconnectPolicy{MaxAttempts: 50, Delay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		},
		SessionsPerConn: 2,
		MaxConns:        2,
	})
	defer p.Close()

	// Four sessions over two connections, each with its own queue and a
	// channel-based consumer. The consumers ack: an auto-ack delivery the
	// broker writes to the dead transport before it sees the loss is gone,
	// while an unacked one is requeued and redelivered after the resume.
	var sessions []*Session
	var inboxes []<-chan Delivery
	for i := 0; i < 4; i++ {
		sess, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		q := fmt.Sprintf("flap-q-%d", i)
		if _, err := sess.QueueDeclare(q, false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		deliveries, err := sess.Consume(q, "", false, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		inboxes = append(inboxes, deliveries)
	}
	if conns, open := p.Stats(); conns != 2 || open != 4 {
		t.Fatalf("got %d conns / %d sessions, want 2 / 4", conns, open)
	}

	publish := func(i int, body string) {
		t.Helper()
		if err := sessions[i].Publish("", fmt.Sprintf("flap-q-%d", i), false, false, Publishing{Body: []byte(body)}); err != nil {
			t.Fatalf("session %d: publish %q: %v", i, body, err)
		}
	}
	expect := func(i int, body string) {
		t.Helper()
		select {
		case d, ok := <-inboxes[i]:
			if !ok {
				t.Fatalf("session %d: delivery channel closed", i)
			}
			if string(d.Body) != body {
				t.Fatalf("session %d: got %q, want %q", i, d.Body, body)
			}
			d.Ack(false)
		case <-time.After(5 * time.Second):
			t.Fatalf("session %d: no delivery of %q", i, body)
		}
	}
	for i := range sessions {
		publish(i, "warm")
		expect(i, "warm")
	}

	// Group sessions by physical connection and put one victim session in
	// confirm mode so the flap leaves an unconfirmed publish behind.
	victimConn := sessions[0].Channel.conn
	var victims, bystanders []int
	for i, sess := range sessions {
		if sess.Channel.conn == victimConn {
			victims = append(victims, i)
		} else {
			bystanders = append(bystanders, i)
		}
	}
	if len(victims) != 2 || len(bystanders) != 2 {
		t.Fatalf("placement: %d/%d sessions on victim/sibling conn, want 2/2", len(victims), len(bystanders))
	}
	siblingConn := sessions[bystanders[0]].Channel.conn
	confirmer := sessions[victims[0]]
	if err := confirmer.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := confirmer.NotifyPublish(make(chan Confirmation, 4))

	victimConn.dropTransport()
	// Publish into the outage on the confirm-mode victim: the write lands
	// on the dead (or resuming) transport and must be replayed.
	publish(victims[0], "outage")

	// The confirm log replays it once the victim has reconnected.
	expect(victims[0], "outage")
	if victimConn.Reconnects() == 0 {
		t.Fatal("the outage publish was delivered, but the victim never reconnected")
	}
	select {
	case conf := <-confirms:
		if !conf.Ack {
			t.Fatalf("outage publish nacked: %+v", conf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no confirm for publish spanning the flap")
	}

	// Every victim session resumed: consumers were replayed onto the new
	// transport. Sibling sessions kept working and never reconnected.
	for _, i := range victims {
		publish(i, "after")
		expect(i, "after")
	}
	for _, i := range bystanders {
		publish(i, "after")
		expect(i, "after")
	}
	if n := siblingConn.Reconnects(); n != 0 {
		t.Fatalf("sibling connection reconnected %d times; flap should not disturb it", n)
	}
	if conns, open := p.Stats(); conns != 2 || open != 4 {
		t.Fatalf("after flap: %d conns / %d sessions, want 2 / 4", conns, open)
	}
}
