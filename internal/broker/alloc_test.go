package broker

import (
	"encoding/binary"
	"net"
	"testing"

	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/wire"
)

// TestAllocsQueuePublishGet locks in the queue hot path: a steady-state
// publish→pop cycle reuses the ready ring and allocates nothing.
func TestAllocsQueuePublishGet(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	msg := &Message{RoutingKey: "q", Body: make([]byte, 2048)}
	// Warm the ring's resident chunk.
	for i := 0; i < 8; i++ {
		if err := q.Publish(msg); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, _, _, _, ok := q.Get(); !ok {
			break
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if err := q.Publish(msg); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, ok := q.Get(); !ok {
			t.Fatal("queue empty after publish")
		}
	})
	if got > 0 {
		t.Fatalf("queue publish/get allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsVHostPublish locks in the sharded-routing win: routing a
// message through the default direct exchange resolves via the per-shard
// index and pooled scratch, allocating nothing per publish.
func TestAllocsVHostPublish(t *testing.T) {
	vh := NewVHost("/")
	if _, err := vh.DeclareQueue("ws-q-0", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	q, _ := vh.Queue("ws-q-0")
	msg := &Message{RoutingKey: "ws-q-0", Body: make([]byte, 2048)}
	// Warm the route scratch pool and the ring chunk.
	for i := 0; i < 8; i++ {
		if _, err := vh.Publish("", "ws-q-0", msg); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, _, _, _, ok := q.Get(); !ok {
			break
		}
	}
	got := testing.AllocsPerRun(200, func() {
		routed, err := vh.Publish("", "ws-q-0", msg)
		if err != nil || routed != 1 {
			t.Fatalf("routed=%d err=%v", routed, err)
		}
		if _, _, _, _, ok := q.Get(); !ok {
			t.Fatal("queue empty after publish")
		}
	})
	if got > 0 {
		t.Fatalf("vhost publish allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsConsumerDeliveryCycle bounds the publish→pump→take→ack cycle
// with a live consumer: pushing a message through a consumer's ring and
// acknowledging it must not allocate.
func TestAllocsConsumerDeliveryCycle(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	cons, err := q.AddConsumer("ctag", false, 8)
	if err != nil {
		t.Fatal(err)
	}
	msg := &Message{RoutingKey: "q", Body: make([]byte, 2048)}
	cycle := func() {
		if err := q.Publish(msg); err != nil {
			t.Fatal(err)
		}
		if _, ok := takeOne(q, cons); !ok {
			t.Fatal("no delivery pumped")
		}
		q.AckN(cons, 1)
	}
	for i := 0; i < 8; i++ {
		cycle() // warm-up
	}
	got := testing.AllocsPerRun(200, cycle)
	if got > 0 {
		t.Fatalf("delivery cycle allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsFanoutPublishDeliverManaged locks in the zero-copy tentpole
// end to end at the structure level: assembling a managed message on a
// pooled body, fanning it out to two queues (shared instance, refcount =
// routed count), draining both consumers, and releasing every reference
// runs at zero allocations per message at steady state.
func TestAllocsFanoutPublishDeliverManaged(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; zero-alloc assertion not meaningful")
	}
	vh := NewVHost("/")
	e, err := vh.DeclareExchange("fan", KindFanout, false)
	if err != nil {
		t.Fatal(err)
	}
	var queues []*Queue
	var conss []*consumer
	for _, name := range []string{"fan-a", "fan-b"} {
		q, err := vh.DeclareQueue(name, false, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Bind(q, "")
		c, err := q.AddConsumer("c", false, 8)
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, q)
		conss = append(conss, c)
	}
	payload := make([]byte, 4096)
	cycle := func() {
		m := NewMessage("fan", "", wire.Properties{}, len(payload))
		m.AppendBody(payload)
		routed, err := vh.Publish("fan", "", m)
		if err != nil || routed != 2 {
			t.Fatalf("routed=%d err=%v", routed, err)
		}
		m.Release() // publisher's reference
		for i, c := range conss {
			d, ok := takeOne(queues[i], c)
			if !ok {
				t.Fatal("no delivery pumped")
			}
			queues[i].AckN(c, 1)
			d.msg.Release() // the queue's reference, resolved by the ack
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm pools: body buffers, message headers, ring chunks
	}
	got := testing.AllocsPerRun(200, cycle)
	if got > 0 {
		t.Fatalf("managed fanout publish→deliver allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsDurableFanoutPublishDeliver locks in the durable hot path's
// allocation budget: publishing a managed message through a fanout into
// two durable queues — each append CRC-framed into its segment log
// (fsync=never) — then draining, acking, and committing the settlement
// offsets must stay at or under one allocation per message at steady
// state. Segment rotation and offset-batch growth amortize to zero over
// the run; anything past 1 alloc/op means durability leaked onto the
// per-message path.
func TestAllocsDurableFanoutPublishDeliver(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; alloc assertion not meaningful")
	}
	vh := NewVHost("/")
	vh.logDir = t.TempDir()
	vh.logOpts = seglog.Options{Fsync: seglog.FsyncNever}
	e, err := vh.DeclareExchange("fan", KindFanout, false)
	if err != nil {
		t.Fatal(err)
	}
	var queues []*Queue
	var conss []*consumer
	for _, name := range []string{"dfan-a", "dfan-b"} {
		q, err := vh.DeclareQueue(name, true, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Bind(q, "")
		c, err := q.AddConsumer("c", false, 8)
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, q)
		conss = append(conss, c)
	}
	defer vh.crash()
	payload := make([]byte, 4096)
	cycle := func() {
		m := NewMessage("fan", "", wire.Properties{}, len(payload))
		m.AppendBody(payload)
		routed, err := vh.Publish("fan", "", m)
		if err != nil || routed != 2 {
			t.Fatalf("routed=%d err=%v", routed, err)
		}
		m.Release() // publisher's reference
		for i, c := range conss {
			d, ok := takeOne(queues[i], c)
			if !ok {
				t.Fatal("no delivery pumped")
			}
			queues[i].AckN(c, 1)
			d.msg.Release() // the queue's reference, resolved by the ack
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm pools and the segment logs' append buffers
	}
	got := testing.AllocsPerRun(200, cycle)
	if got > 1 {
		t.Fatalf("durable fanout publish→deliver allocates %.1f objects/op, want <= 1", got)
	}
}

// discardConn is a broker-side socket whose peer reads nothing: every
// write succeeds and vanishes.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// dispatchConn is a connection of a live server that the test drives
// frame by frame through dispatch, with channel 1 open; what the broker
// writes back is discarded.
func dispatchConn(t *testing.T, cfg Config) *srvConn {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sc := newSrvConn(s, discardConn{})
	sc.vh = s.VHost("/")
	t.Cleanup(sc.shutdown)
	dispatchMethod(t, sc, 1, &wire.ChannelOpen{})
	return sc
}

func methodFrame(t *testing.T, channel uint16, m wire.Method) wire.Frame {
	t.Helper()
	payload, err := wire.EncodeMethod(m)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Frame{Type: wire.FrameMethod, Channel: channel, Payload: payload}
}

func dispatchMethod(t *testing.T, sc *srvConn, channel uint16, m wire.Method) {
	t.Helper()
	if err := sc.dispatch(methodFrame(t, channel, m)); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsPublishIngest locks in the ingest path: a confirm-mode publish
// that srvConn.dispatch decodes from its method, header and body frames,
// assembles, routes to a queue and confirms allocates nothing per message
// once warm. The frames decode into the channel's slots, the routing key
// and properties repeat the strings the slots already hold, and the
// confirm encodes from the connection's scratch.
func TestAllocsPublishIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; zero-alloc assertion not meaningful")
	}
	sc := dispatchConn(t, Config{})
	dispatchMethod(t, sc, 1, &wire.ConfirmSelect{})
	dispatchMethod(t, sc, 1, &wire.QueueDeclare{Queue: "ingest-q"})
	q, _ := sc.vh.Queue("ingest-q")
	header, err := wire.EncodeContentHeader(&wire.ContentHeader{
		ClassID:  wire.ClassBasic,
		BodySize: 1024,
		Properties: wire.Properties{
			ContentType: "application/octet-stream", ReplyTo: "reply-q",
			DeliveryMode: wire.Persistent, Timestamp: 12345,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := []wire.Frame{
		methodFrame(t, 1, &wire.BasicPublish{RoutingKey: "ingest-q"}),
		{Type: wire.FrameHeader, Channel: 1, Payload: header},
		{Type: wire.FrameBody, Channel: 1, Payload: make([]byte, 1024)},
	}
	cycle := func() {
		for _, f := range frames {
			if err := sc.dispatch(f); err != nil {
				t.Fatal(err)
			}
		}
		sc.preRead()
		m, _, _, _, ok := q.Get()
		if !ok {
			t.Fatal("publish not queued")
		}
		if m.RoutingKey != "ingest-q" || m.Props.ReplyTo != "reply-q" || len(m.Body) != 1024 {
			t.Fatalf("queued %q reply-to %q with %d body bytes", m.RoutingKey, m.Props.ReplyTo, len(m.Body))
		}
		m.Release()
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the pools and the slots' strings
	}
	if got := testing.AllocsPerRun(200, cycle); got > 0 {
		t.Fatalf("publish ingest allocates %.1f objects/op, want 0", got)
	}
}

// ackChannel is channel 1 of a dispatchConn consuming from one durable
// and one transient queue. Its deliveries are handed out by hand (take),
// the way serveConsumer issues them to the channel's outbound core, so
// acks can be driven through dispatch without a delivery loop.
type ackChannel struct {
	t      *testing.T
	sc     *srvConn
	ch     *srvChannel
	queues [2]*Queue
	cons   [2]*consumer
	msg    *Message
}

func newAckChannel(t *testing.T) *ackChannel {
	t.Helper()
	sc := dispatchConn(t, Config{DataDir: t.TempDir(), Durability: seglog.Options{Fsync: seglog.FsyncNever}})
	a := &ackChannel{t: t, sc: sc, ch: sc.channel(1), msg: &Message{RoutingKey: "q", Body: make([]byte, 1024)}}
	for i, durable := range []bool{true, false} {
		q, err := sc.vh.DeclareQueue([]string{"ack-durable", "ack-transient"}[i], durable, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := q.AddConsumer("c", false, 64)
		if err != nil {
			t.Fatal(err)
		}
		a.queues[i], a.cons[i] = q, c
	}
	return a
}

// take publishes one message to queue i and issues its delivery.
func (a *ackChannel) take(i int) {
	if err := a.queues[i].Publish(a.msg); err != nil {
		a.t.Fatal(err)
	}
	a.issue(i)
}

// issue takes the next delivery on queue i's consumer ring and hands it to
// the channel's outbound core under the next delivery tag.
func (a *ackChannel) issue(i int) {
	d, ok := takeOne(a.queues[i], a.cons[i])
	if !ok {
		a.t.Fatal("no delivery pumped")
	}
	a.ch.mu.Lock()
	a.ch.deliveryTag++
	a.ch.out.issue(a.ch.deliveryTag, a.queues[i], a.cons[i], d.msg, d.off)
	a.ch.mu.Unlock()
}

// send dispatches frame f, a basic.ack or basic.nack encoded ahead, with
// its delivery tag patched to the channel's last one.
func (a *ackChannel) send(f wire.Frame) {
	binary.BigEndian.PutUint64(f.Payload[4:12], a.ch.deliveryTag)
	if err := a.sc.dispatch(f); err != nil {
		a.t.Fatal(err)
	}
}

// settle resolves every delivery so far with one multiple-ack (or
// multiple-nack with requeue) frame through dispatch.
func (a *ackChannel) settle(requeue bool) {
	var m wire.Method = &wire.BasicAck{DeliveryTag: a.ch.deliveryTag, Multiple: true}
	if requeue {
		m = &wire.BasicNack{DeliveryTag: a.ch.deliveryTag, Multiple: true, Requeue: true}
	}
	dispatchMethod(a.t, a.sc, 1, m)
	if n := a.ch.out.live; n != 0 {
		a.t.Fatalf("%d deliveries still unsettled", n)
	}
}

// TestAllocsMultipleAck locks in settlement through the outbound core:
// deliveries of a durable and a transient queue, interleaved on one
// channel and resolved by one basic.ack{multiple} that srvConn.dispatch
// decodes, are grouped per (queue, consumer) in the core's reused result —
// credit restored and durable offsets committed per group — without an
// allocation once warm, durable appends included. So are a single-tag
// basic.ack and a single basic.nack{requeue}, whose message comes back
// redelivered and is then acked. The frames are encoded ahead and their
// tags patched, so the test allocates nothing itself.
func TestAllocsMultipleAck(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; zero-alloc assertion not meaningful")
	}
	a := newAckChannel(t)
	multiple := methodFrame(t, 1, &wire.BasicAck{Multiple: true})
	single := methodFrame(t, 1, &wire.BasicAck{})
	nack := methodFrame(t, 1, &wire.BasicNack{Requeue: true})
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"multiple ack", func() {
			for i := 0; i < 8; i++ {
				a.take(i % 2)
			}
			a.send(multiple)
		}},
		{"single ack", func() {
			a.take(0)
			a.send(single)
			a.take(1)
			a.send(single)
		}},
		{"single nack requeue", func() {
			for i := 0; i < 2; i++ {
				a.take(i)
				a.send(nack)
				a.issue(i) // the requeued message, redelivered
				a.send(single)
			}
		}},
	} {
		for i := 0; i < 8; i++ {
			c.cycle() // warm the scratch, the ring chunks and the log's buffers
		}
		if got := testing.AllocsPerRun(200, c.cycle); got > 0 {
			t.Fatalf("%s allocates %.1f objects/op, want 0", c.name, got)
		}
		if n := a.ch.out.live; n != 0 {
			t.Fatalf("%s: %d deliveries still unsettled", c.name, n)
		}
	}
}

// TestMultipleRequeueReusesDurableGroup: the outbound core's reused
// result hands a group the slices of the group that sat in its slot
// before. A transient queue's requeue that inherits a durable group's
// offset slice must carry only its own offsets — every message back on
// its queue, marked redelivered.
func TestMultipleRequeueReusesDurableGroup(t *testing.T) {
	a := newAckChannel(t)
	a.take(0) // durable first: slot 0 becomes the durable group, with offsets
	a.take(1)
	a.settle(false)
	a.take(1) // transient first: slot 0 goes to the transient group
	a.take(0)
	a.settle(true)
	for i, q := range a.queues {
		d, ok := takeOne(q, a.cons[i])
		if !ok {
			t.Fatalf("%s: requeued message not redelivered", q.Name)
		}
		if !d.redelivered {
			t.Fatalf("%s: requeued message not marked redelivered", q.Name)
		}
	}
}
