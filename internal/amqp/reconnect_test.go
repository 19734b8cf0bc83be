package amqp_test

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/wire"
)

// testPolicy is a fast retry schedule suited to in-process brokers.
func testPolicy() *amqp.ReconnectPolicy {
	return &amqp.ReconnectPolicy{MaxAttempts: 50, Delay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// dialFaulted connects through a fault injector with reconnect enabled.
func dialFaulted(t *testing.T, s *broker.Server, in *transport.Injector) *amqp.Connection {
	t.Helper()
	c, err := amqp.DialConfig("amqp://"+s.Addr(), amqp.Config{
		Dial:      transport.Path{in.Hop()}.Dial(),
		Reconnect: testPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestReconnectResumesPublishAndConsume cuts the transport mid-run and
// checks the full contract: the connection redials, channel state (QoS,
// confirm mode, consumer) is replayed, unconfirmed publishes are resent,
// confirms keep arriving with the original client sequence numbers, and
// every message is eventually delivered.
func TestReconnectResumesPublishAndConsume(t *testing.T) {
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	// The redial reports itself and waits for release: the connection has
	// seen the loss and suspended its channels by then.
	redialing, release := make(chan struct{}), make(chan struct{})
	var dials atomic.Int32
	path := transport.Path{in.Hop()}.Dial()
	conn, err := amqp.DialConfig("amqp://"+s.Addr(), amqp.Config{
		Dial: func(network, addr string) (net.Conn, error) {
			if dials.Add(1) == 2 {
				close(redialing)
				<-release
			}
			return path(network, addr)
		},
		Reconnect: testPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ch := openChannel(t, conn)
	if _, err := ch.QueueDeclare("rq", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := ch.Qos(8, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 64))
	deliveries, err := ch.Consume("rq", "rc", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	const total = 24
	seen := map[string]bool{}
	acked := map[uint64]bool{}
	done := make(chan error, 1)
	go func() {
		deadline := time.After(20 * time.Second)
		for len(seen) < total || len(acked) < total {
			select {
			case d, ok := <-deliveries:
				if !ok {
					done <- fmt.Errorf("deliveries closed with %d/%d messages", len(seen), total)
					return
				}
				seen[d.MessageID] = true
				d.Ack(false)
			case cf := <-confirms:
				if !cf.Ack {
					done <- fmt.Errorf("unexpected nack for seq %d", cf.DeliveryTag)
					return
				}
				if acked[cf.DeliveryTag] {
					done <- fmt.Errorf("duplicate confirm for seq %d", cf.DeliveryTag)
					return
				}
				acked[cf.DeliveryTag] = true
			case <-deadline:
				done <- fmt.Errorf("timeout with %d/%d delivered, %d/%d confirmed",
					len(seen), total, len(acked), total)
				return
			}
		}
		done <- nil
	}()

	for i := 0; i < total; i++ {
		if i == total/2 {
			// Mid-run transport loss behind unconfirmed publishes; the next
			// publishes are made once the connection is suspended, and wait
			// for the replay to re-open the channel.
			in.ResetConns()
			<-redialing
			close(release)
		}
		err := ch.Publish("", "rq", false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("m%d", i),
			Body:      []byte("payload"),
		})
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if conn.Reconnects() == 0 {
		t.Fatal("connection never reconnected")
	}
	// Confirm sequence numbers must be exactly 1..total with no gaps:
	// replayed publishes keep their original client sequence numbers.
	for seq := uint64(1); seq <= total; seq++ {
		if !acked[seq] {
			t.Fatalf("missing confirm for client seq %d", seq)
		}
	}
}

// TestReconnectConfirmMappingUnderRepeatedResets hammers the
// publish-versus-resume window: unpaced publishes racing several resets
// must still produce exactly one confirm per client sequence number — a
// publish double-written during a resume would shift every later broker
// confirm tag off by one and strand the tail unconfirmed.
func TestReconnectConfirmMappingUnderRepeatedResets(t *testing.T) {
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	conn := dialFaulted(t, s, in)
	ch := openChannel(t, conn)
	if _, err := ch.QueueDeclare("hq", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 256))

	const total = 200
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				in.ResetConns()
			}
		}
	}()
	for i := 0; i < total; i++ {
		if err := ch.Publish("", "hq", false, false, amqp.Publishing{Body: []byte("h")}); err != nil {
			close(stop)
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	close(stop)

	acked := map[uint64]bool{}
	deadline := time.After(30 * time.Second)
	for len(acked) < total {
		select {
		case cf := <-confirms:
			if acked[cf.DeliveryTag] {
				t.Fatalf("duplicate confirm for seq %d", cf.DeliveryTag)
			}
			if cf.DeliveryTag == 0 || cf.DeliveryTag > total {
				t.Fatalf("confirm for unknown seq %d", cf.DeliveryTag)
			}
			acked[cf.DeliveryTag] = true
		case <-deadline:
			t.Fatalf("timeout with %d/%d confirms (mapping drifted)", len(acked), total)
		}
	}
}

// TestReconnectGivesUpAfterMaxAttempts bounds the retry loop: a link that
// never heals must shut the connection down (closing consumer channels)
// instead of spinning forever.
func TestReconnectGivesUpAfterMaxAttempts(t *testing.T) {
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	c, err := amqp.DialConfig("amqp://"+s.Addr(), amqp.Config{
		Dial:      transport.Path{in.Hop()}.Dial(),
		Reconnect: &amqp.ReconnectPolicy{MaxAttempts: 3, Delay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch := openChannel(t, c)
	if _, err := ch.QueueDeclare("gq", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	deliveries, err := ch.Consume("gq", "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	failures := telemetry.Default.Counter("amqp.reconnect_failures")
	before := failures.Load()
	in.Partition() // never healed
	select {
	case _, ok := <-deliveries:
		if ok {
			t.Fatal("unexpected delivery")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer channel not closed after reconnect exhaustion")
	}
	if !c.IsClosed() {
		t.Fatal("connection must be closed after exhausting attempts")
	}
	if failures.Load() == before {
		t.Fatal("reconnect failure not counted")
	}
}

// TestReconnectDisabledKeepsLegacyFailFast pins the legacy behaviour: no
// policy, a transport loss closes the connection immediately.
func TestReconnectDisabledKeepsLegacyFailFast(t *testing.T) {
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	c, err := amqp.DialConfig("amqp://"+s.Addr(), amqp.Config{
		Dial: transport.Path{in.Hop()}.Dial(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	closed := c.NotifyClose(make(chan *amqp.Error, 1))
	in.ResetConns()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
	}
	if !c.IsClosed() {
		t.Fatal("legacy connection must fail fast on transport loss")
	}
}

// TestReconnectAcrossLinkFlap exercises the dial-refused path: the flap
// both resets live connections and refuses redials until it heals, so
// the retry loop must outlast the outage.
func TestReconnectAcrossLinkFlap(t *testing.T) {
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	conn := dialFaulted(t, s, in)
	ch := openChannel(t, conn)
	if _, err := ch.QueueDeclare("fq", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 16))

	in.Flap(50 * time.Millisecond)
	// Publish during the outage: must be queued and replayed.
	if err := ch.Publish("", "fq", false, false, amqp.Publishing{Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case cf := <-confirms:
		if !cf.Ack || cf.DeliveryTag != 1 {
			t.Fatalf("confirm %+v", cf)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publish across flap never confirmed")
	}
	if st := in.Stats(); st.Refused == 0 {
		t.Error("expected refused dials during the flap window")
	}
	if conn.Reconnects() == 0 {
		t.Fatal("connection never reconnected")
	}
}

// TestReconnectDropsStaleAckAfterRedelivery holds a manual-ack delivery across a
// link cut and acks it only after the reconnect has redelivered it, under
// the same tag, on the new transport. The old ack names a delivery of the
// dead transport: it must not reach the new one, where it would settle the
// redelivery; it counts as one stale ack; and the redelivered body, on a
// loan of its own, stays intact until its own ack, after which the loans
// are back to the baseline.
func TestReconnectDropsStaleAckAfterRedelivery(t *testing.T) {
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
	if _, err := ch.QueueDeclare("stale-q", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := ch.Qos(1, 0, false); err != nil {
		t.Fatal(err)
	}
	deliveries, err := ch.Consume("stale-q", "stale-c", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0xA5}, 4096)
	if err := openChannel(t, dial(t, s)).Publish("", "stale-q", false, false, amqp.Publishing{Body: body}); err != nil {
		t.Fatal(err)
	}
	next := func(what string) amqp.Delivery {
		t.Helper()
		select {
		case d, ok := <-deliveries:
			if !ok {
				t.Fatalf("deliveries closed before the %s", what)
			}
			return d
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s", what)
		}
		return amqp.Delivery{}
	}
	old := next("delivery")

	in.ResetConns()
	again := next("redelivery")
	if !again.Redelivered || again.DeliveryTag != old.DeliveryTag || !bytes.Equal(again.Body, body) {
		t.Fatalf("redelivery: tag %d (old %d), redelivered=%v, %d-byte body", again.DeliveryTag, old.DeliveryTag, again.Redelivered, len(again.Body))
	}
	newAcks := func() []uint64 {
		trs := tp.transports(t)
		return trs[len(trs)-1].acks
	}

	stale := telemetry.Default.Counter("amqp.stale_acks_dropped")
	before := stale.Load()
	if err := old.Ack(false); err != nil {
		t.Fatalf("stale ack: %v", err)
	}
	if got := stale.Load() - before; got != 1 {
		t.Fatalf("stale acks dropped went up by %d, want 1", got)
	}
	if acks := newAcks(); len(acks) != 0 {
		t.Fatalf("the new transport carried acks %v before the redelivery's own", acks)
	}
	// Had the stale ack released the redelivery's loan, these loans of its
	// size would take the buffer back and scribble over the body.
	var probes [8]*[]byte
	for i := range probes {
		probes[i] = wire.LoanBuf(len(body))
		*probes[i] = append(*probes[i], make([]byte, len(body))...)
	}
	for _, p := range probes {
		wire.ReleaseBuf(p)
	}
	if !bytes.Equal(again.Body, body) || !bytes.Equal(old.Body, body) {
		t.Fatal("a body changed before its own ack")
	}

	if err := again.Ack(false); err != nil {
		t.Fatal(err)
	}
	if acks := newAcks(); !slices.Equal(acks, []uint64{again.DeliveryTag}) {
		t.Fatalf("the new transport carried acks %v, want only the redelivery's %d", acks, again.DeliveryTag)
	}
	q, _ := s.VHost("/").Queue("stale-q")
	waitFor(t, "the broker to settle the redelivery", func() bool { return q.Len() == 0 && q.Stats().Acked == 1 })
	if _, err := s.VHost("/").DeleteQueue("stale-q", false, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loans back to the baseline", func() bool { return wire.LoanedBytes() == base })
}

// TestReconnectKeepsPerConsumerPrefetch subscribes two consumers under
// different prefetch windows and cuts the link: the replay must give each
// consumer back the window it subscribed under, not the channel's last
// one. Consumer a, subscribed under prefetch 1, holds one unacked
// delivery on the new transport although ten are ready.
func TestReconnectKeepsPerConsumerPrefetch(t *testing.T) {
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	conn := dialFaulted(t, s, in)
	ch := openChannel(t, conn)
	for _, q := range []string{"qa", "qb"} {
		if _, err := ch.QueueDeclare(q, false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.Qos(1, 0, false); err != nil {
		t.Fatal(err)
	}
	da, err := ch.Consume("qa", "a", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Qos(100, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Consume("qb", "b", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}

	in.ResetConns()
	waitFor(t, "the reconnect", func() bool { return conn.Reconnects() > 0 })
	pub := openChannel(t, conn)
	for i := 0; i < 10; i++ {
		if err := pub.Publish("", "qa", false, false, amqp.Publishing{Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	window := time.After(500 * time.Millisecond)
	for counting := true; counting; {
		select {
		case <-da:
			held++
		case <-window:
			counting = false
		}
	}
	if held != 1 {
		t.Fatalf("consumer a holds %d unacked deliveries after the replay, want 1 (prefetch 1)", held)
	}
}

// TestReconnectReplaysMoreConsumersThanOneRound subscribes more consumers
// on one channel than the replay pipelines in one round (a channel owes at
// most what its reply buffer holds): after a link cut every one of them
// is subscribed again and gets its message.
func TestReconnectReplaysMoreConsumersThanOneRound(t *testing.T) {
	const consumers = 12
	s := startBroker(t, broker.Config{})
	in := transport.NewInjector()
	conn := dialFaulted(t, s, in)
	ch := openChannel(t, conn)
	var inboxes []<-chan amqp.Delivery
	for i := 0; i < consumers; i++ {
		q := fmt.Sprintf("many-%d", i)
		if _, err := ch.QueueDeclare(q, false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		d, err := ch.Consume(q, "", true, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		inboxes = append(inboxes, d)
	}
	// In confirm mode, a publish that races the cut is replayed, not lost.
	pub := openChannel(t, conn)
	if err := pub.Confirm(false); err != nil {
		t.Fatal(err)
	}
	in.ResetConns()
	for i := range inboxes {
		if err := pub.Publish("", fmt.Sprintf("many-%d", i), false, false, amqp.Publishing{Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range inboxes {
		select {
		case m, ok := <-d:
			if !ok || len(m.Body) != 1 || m.Body[0] != byte(i) {
				t.Fatalf("consumer %d: delivery %v (open %v)", i, m.Body, ok)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("consumer %d got nothing after the reconnect", i)
		}
	}
	if conn.Reconnects() == 0 {
		t.Fatal("connection never reconnected")
	}
}
