package broker

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

func msg(body string) *Message {
	return &Message{RoutingKey: "k", Body: []byte(body)}
}

// takeOne takes c's next pending delivery, as the delivery loop does.
func takeOne(q *Queue, c *consumer) (qitem, bool) {
	var buf [1]qitem
	n := q.take(c, buf[:])
	return buf[0], n == 1
}

// takeWait takes c's next delivery, waiting up to 5 s for one to arrive.
func takeWait(t *testing.T, q *Queue, c *consumer) qitem {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if d, ok := takeOne(q, c); ok {
			return d
		}
	}
	t.Fatal("no delivery within 5 s")
	return qitem{}
}

// pendingLen reports how many deliveries wait on c's ring.
func pendingLen(q *Queue, c *consumer) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return c.pending.len()
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	for i := 0; i < 5; i++ {
		if err := q.Publish(msg(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, _, _, _, ok := q.Get()
		if !ok {
			t.Fatalf("missing message %d", i)
		}
		if string(m.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("out of order: %q at %d", m.Body, i)
		}
	}
	if _, _, _, _, ok := q.Get(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestQueueMaxLenRejectPublish(t *testing.T) {
	q := NewQueue("q", QueueLimits{MaxLen: 2, Overflow: OverflowRejectPublish})
	if err := q.Publish(msg("a")); err != nil {
		t.Fatal(err)
	}
	if err := q.Publish(msg("b")); err != nil {
		t.Fatal(err)
	}
	if err := q.Publish(msg("c")); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if q.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d", q.Stats().Rejected)
	}
}

func TestQueueMaxBytesDropHead(t *testing.T) {
	q := NewQueue("q", QueueLimits{MaxBytes: 10})
	q.Publish(msg("aaaa")) // 4 bytes
	q.Publish(msg("bbbb")) // 8 bytes
	q.Publish(msg("cccc")) // would be 12: drops "aaaa"
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	m, _, _, _, _ := q.Get()
	if string(m.Body) != "bbbb" {
		t.Fatalf("head = %q, want bbbb", m.Body)
	}
	if q.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d", q.Stats().Dropped)
	}
}

func TestQueueRequeueGoesToHead(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	q.Publish(msg("first"))
	q.Publish(msg("second"))
	m, _, _, _, _ := q.Get()
	q.RequeueAll([]*Message{m}, []uint64{offNone})
	m2, _, redelivered, _, _ := q.Get()
	if string(m2.Body) != "first" || !redelivered {
		t.Fatalf("requeue order broken: %q redelivered=%v", m2.Body, redelivered)
	}
}

func TestQueueConsumerCredit(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	c, err := q.AddConsumer("c1", false, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q.Publish(msg(fmt.Sprintf("m%d", i)))
	}
	// Only 2 should be pushed (credit 2).
	if got := pendingLen(q, c); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	takeOne(q, c) // took one, but no ack yet: credit still 0
	if got := pendingLen(q, c); got != 1 {
		t.Fatalf("pending after take = %d, want 1", got)
	}
	q.AckN(c, 1) // returns one credit
	if got := pendingLen(q, c); got != 2 {
		t.Fatalf("pending after ack = %d, want 2", got)
	}
}

func TestQueueRoundRobinAcrossConsumers(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	c1, _ := q.AddConsumer("c1", true, 0)
	c2, _ := q.AddConsumer("c2", true, 0)
	for i := 0; i < 6; i++ {
		q.Publish(msg("x"))
	}
	if n1, n2 := pendingLen(q, c1), pendingLen(q, c2); n1 != 3 || n2 != 3 {
		t.Fatalf("distribution %d/%d, want 3/3", n1, n2)
	}
}

func TestQueueRemoveConsumer(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	c1, _ := q.AddConsumer("c1", true, 0)
	q.RemoveConsumer(c1)
	if q.ConsumerCount() != 0 {
		t.Fatal("consumer not removed")
	}
	select {
	case <-c1.closed:
	default:
		t.Fatal("closed channel not signalled")
	}
	// Publishing with no consumers must queue, not panic.
	q.Publish(msg("parked"))
	if q.Len() != 1 {
		t.Fatal("message not parked")
	}

	// Deliveries pending on a removed consumer go back to the head, in
	// order and redelivered, ahead of the ready tail.
	q = NewQueue("q", QueueLimits{})
	c2, _ := q.AddConsumer("c2", false, 3)
	for i := 0; i < 5; i++ {
		q.Publish(msg(fmt.Sprint(i)))
	}
	if n := pendingLen(q, c2); n != 3 {
		t.Fatalf("%d pending, want 3", n)
	}
	q.RemoveConsumer(c2)
	for i := 0; i < 5; i++ {
		m, _, redelivered, _, ok := q.Get()
		if !ok || string(m.Body) != fmt.Sprint(i) || redelivered != (i < 3) {
			t.Fatalf("position %d: ok=%v body %q redelivered=%v, want body %d redelivered=%v", i, ok, m.Body, redelivered, i, i < 3)
		}
	}
}

func TestExchangeDirect(t *testing.T) {
	e := NewExchange("d", KindDirect)
	q1 := NewQueue("q1", QueueLimits{})
	q2 := NewQueue("q2", QueueLimits{})
	e.Bind(q1, "a")
	e.Bind(q2, "b")
	if got := e.routeAppend("a", nil); len(got) != 1 || got[0] != q1 {
		t.Fatalf("route(a) = %v", got)
	}
	if got := e.routeAppend("c", nil); len(got) != 0 {
		t.Fatalf("route(c) = %v", got)
	}
}

func TestExchangeFanoutDeduplicates(t *testing.T) {
	e := NewExchange("f", KindFanout)
	q := NewQueue("q", QueueLimits{})
	e.Bind(q, "k1")
	e.Bind(q, "k2")
	if got := e.routeAppend("anything", nil); len(got) != 1 {
		t.Fatalf("fanout duplicated queue: %d", len(got))
	}
}

func TestExchangeUnbind(t *testing.T) {
	e := NewExchange("d", KindDirect)
	q := NewQueue("q", QueueLimits{})
	e.Bind(q, "a")
	e.Unbind(q, "a")
	if len(e.routeAppend("a", nil)) != 0 {
		t.Fatal("unbind failed")
	}
}

func TestTopicMatch(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"a.b.c", "a.b.c", true},
		{"a.b.c", "a.b.d", false},
		{"a.*.c", "a.b.c", true},
		{"a.*.c", "a.b.b.c", false},
		{"a.#", "a", true},
		{"a.#", "a.b.c.d", true},
		{"#", "anything.at.all", true},
		{"#", "", true},
		{"*.b", "a.b", true},
		{"*.b", "b", false},
		{"a.#.c", "a.c", true},
		{"a.#.c", "a.x.y.c", true},
		{"a.#.c", "a.c.x", false},
	}
	for _, tc := range cases {
		if got := topicMatch(tc.pattern, tc.key); got != tc.want {
			t.Errorf("topicMatch(%q, %q) = %v, want %v", tc.pattern, tc.key, got, tc.want)
		}
	}
}

func TestVHostDeclareAndRoute(t *testing.T) {
	vh := NewVHost("/")
	q, err := vh.DeclareQueue("jobs", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Default exchange routes by queue name.
	n, err := vh.Publish("", "jobs", msg("task"))
	if err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	if q.Len() != 1 {
		t.Fatal("message not routed to queue")
	}
}

func TestVHostPassiveDeclare(t *testing.T) {
	vh := NewVHost("/")
	if _, err := vh.DeclareQueue("nope", false, false, false, true, nil); err == nil {
		t.Fatal("passive declare of missing queue should fail")
	}
	if _, err := vh.DeclareExchange("nope", KindDirect, true); err == nil {
		t.Fatal("passive declare of missing exchange should fail")
	}
}

func TestVHostExchangeKindConflict(t *testing.T) {
	vh := NewVHost("/")
	if _, err := vh.DeclareExchange("e", KindDirect, false); err != nil {
		t.Fatal(err)
	}
	if _, err := vh.DeclareExchange("e", KindFanout, false); err == nil {
		t.Fatal("kind conflict should fail")
	}
}

func TestVHostDeleteQueueCleansBindings(t *testing.T) {
	vh := NewVHost("/")
	q, _ := vh.DeclareQueue("dq", false, false, false, false, nil)
	e, _ := vh.DeclareExchange("fan", KindFanout, false)
	e.Bind(q, "")
	if _, err := vh.DeleteQueue("dq", false, false); err != nil {
		t.Fatal(err)
	}
	if len(e.routeAppend("", nil)) != 0 {
		t.Fatal("binding survived queue delete")
	}
	if n, err := vh.Publish("", "dq", msg("x")); err != nil || n != 0 {
		t.Fatalf("publish to deleted queue: n=%d err=%v", n, err)
	}
}

// TestVHostQueueTelemetryLifecycle checks a declared queue's telemetry
// exports appear, track the queue, and disappear on delete (no stale
// series pinning dead queues).
func TestVHostQueueTelemetryLifecycle(t *testing.T) {
	vh := NewVHost("/")
	if _, err := vh.DeclareQueue("tele-q", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := vh.Publish("", "tele-q", msg("x")); err != nil {
		t.Fatal(err)
	}
	snap := telemetry.Default.Snapshot()
	if snap.Gauges[`broker.queue_depth{queue=tele-q}`] != 1 {
		t.Fatalf("depth gauge = %d", snap.Gauges[`broker.queue_depth{queue=tele-q}`])
	}
	if snap.Counters[`broker.queue_published{queue=tele-q}`] != 1 {
		t.Fatalf("published counter = %d", snap.Counters[`broker.queue_published{queue=tele-q}`])
	}
	if _, err := vh.DeleteQueue("tele-q", false, false); err != nil {
		t.Fatal(err)
	}
	snap = telemetry.Default.Snapshot()
	if _, ok := snap.Gauges[`broker.queue_depth{queue=tele-q}`]; ok {
		t.Fatal("depth gauge survived queue delete")
	}
	if _, ok := snap.Counters[`broker.queue_published{queue=tele-q}`]; ok {
		t.Fatal("published counter survived queue delete")
	}
}

func TestVHostMemoryAccounting(t *testing.T) {
	vh := NewVHost("/")
	q, _ := vh.DeclareQueue("m", false, false, false, false, nil)
	vh.Publish("", "m", &Message{Body: make([]byte, 100)})
	vh.Publish("", "m", &Message{Body: make([]byte, 50)})
	if got := vh.totalBytes.Load(); got != 150 {
		t.Fatalf("totalBytes = %d, want 150", got)
	}
	q.Get()
	if got := vh.totalBytes.Load(); got != 50 {
		t.Fatalf("totalBytes after get = %d, want 50", got)
	}
	q.Purge()
	if got := vh.totalBytes.Load(); got != 0 {
		t.Fatalf("totalBytes after purge = %d, want 0", got)
	}
}

func TestVHostMemoryAlarm(t *testing.T) {
	vh := NewVHost("/")
	vh.MemoryLimit = 100
	vh.DeclareQueue("a", false, false, false, false, nil)
	if _, err := vh.Publish("", "a", &Message{Body: make([]byte, 200)}); err != nil {
		t.Fatalf("first publish must pass (watermark checked before): %v", err)
	}
	if _, err := vh.Publish("", "a", &Message{Body: []byte("x")}); err != ErrMemoryAlarm {
		t.Fatalf("err = %v, want ErrMemoryAlarm", err)
	}
}

// TestVHostFanoutSharesMessage locks in the zero-copy fanout contract:
// every matched queue holds the same message instance (no per-queue heap
// copy), while per-queue delivery state — the redelivered flag — stays
// independent because it lives in the queue entry, not the message.
func TestVHostFanoutSharesMessage(t *testing.T) {
	vh := NewVHost("/")
	q1, _ := vh.DeclareQueue("s1", false, false, false, false, nil)
	q2, _ := vh.DeclareQueue("s2", false, false, false, false, nil)
	e, _ := vh.DeclareExchange("fan", KindFanout, false)
	e.Bind(q1, "")
	e.Bind(q2, "")
	n, err := vh.Publish("fan", "", msg("w"))
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	m1, _, _, _, _ := q1.Get()
	// Requeue on q1 must not flag q2's entry as redelivered.
	q1.RequeueAll([]*Message{m1}, []uint64{offNone})
	if m2, _, redelivered, _, _ := q2.Get(); m2 != m1 || redelivered {
		t.Fatalf("shared=%v redelivered=%v, want shared instance with independent flags", m2 == m1, redelivered)
	}
	if _, _, redelivered, _, _ := q1.Get(); !redelivered {
		t.Fatal("q1's requeued entry lost its redelivered flag")
	}
}

// TestQueueRingStableUnderChurn drives the drop-head-style churn the
// chunked ring exists for: sustained pop-from-head with a deep backlog
// must keep memory bounded — the ring holds only the chunks the live
// entries span, never the whole history.
func TestQueueRingStableUnderChurn(t *testing.T) {
	q := NewQueue("q", QueueLimits{})
	for i := 0; i < 1000; i++ {
		q.Publish(msg("x"))
	}
	for i := 0; i < 900; i++ {
		q.Get()
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.mu.Lock()
	chunks := 0
	for c := q.ready.head; c != nil; c = c.next {
		chunks++
	}
	q.mu.Unlock()
	// 100 entries span at most ceil(100/ringChunkSize)+1 chunks.
	if max := 100/ringChunkSize + 2; chunks > max {
		t.Errorf("ring holds %d chunks for 100 entries, want <= %d", chunks, max)
	}
}

func TestQuickQueueFIFOProperty(t *testing.T) {
	f := func(bodies [][]byte) bool {
		q := NewQueue("q", QueueLimits{})
		for _, b := range bodies {
			if err := q.Publish(&Message{Body: b}); err != nil {
				return false
			}
		}
		for i, b := range bodies {
			m, _, _, _, ok := q.Get()
			if !ok || string(m.Body) != string(b) {
				_ = i
				return false
			}
		}
		_, _, _, _, ok := q.Get()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQueueByteAccounting: a reject-publish queue sized to the sum
// of the bodies accepts exactly those publishes and refuses one byte
// more; once they are all got, it accepts the whole sum again.
func TestQuickQueueByteAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true // MaxBytes 0 is no limit
		}
		var sum int64
		for _, s := range sizes {
			sum += 1 + int64(s%4096)
		}
		q := NewQueue("q", QueueLimits{MaxBytes: sum, Overflow: OverflowRejectPublish})
		fill := func() bool {
			for _, s := range sizes {
				if q.Publish(&Message{Body: make([]byte, 1+int(s%4096))}) != nil {
					return false
				}
			}
			return q.Publish(&Message{Body: make([]byte, 1)}) == ErrQueueFull
		}
		if !fill() {
			return false
		}
		for range sizes {
			q.Get()
		}
		return fill()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTopicHashMatchesEverything(t *testing.T) {
	f := func(words []string) bool {
		key := ""
		for i, w := range words {
			if w == "" {
				w = "w"
			}
			if i > 0 {
				key += "."
			}
			key += w
		}
		return topicMatch("#", key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestServerVHostIsolation(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := s.VHost("a")
	b := s.VHost("b")
	if a == b {
		t.Fatal("vhosts must be distinct")
	}
	if again := s.VHost("a"); again != a {
		t.Fatal("vhost lookup must be stable")
	}
	a.DeclareQueue("q", false, false, false, false, nil)
	if _, ok := b.Queue("q"); ok {
		t.Fatal("queue leaked across vhosts")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueLimitsFromArguments(t *testing.T) {
	vh := NewVHost("/")
	q, err := vh.DeclareQueue("lim", false, false, false, false, wire.Table{
		"x-max-length":       int32(7),
		"x-max-length-bytes": int64(1 << 20),
		"x-overflow":         OverflowRejectPublish,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Limits.MaxLen != 7 || q.Limits.MaxBytes != 1<<20 || q.Limits.Overflow != OverflowRejectPublish {
		t.Fatalf("limits = %+v", q.Limits)
	}
}

func TestConsumerWriterDrainTimeliness(t *testing.T) {
	// Ensure pump+drain cycles never stall under sustained load.
	q := NewQueue("q", QueueLimits{})
	c, _ := q.AddConsumer("c", true, 0)
	done := make(chan struct{})
	const total = 10_000
	go func() {
		for i := 0; i < total; {
			if _, ok := takeOne(q, c); ok {
				i++
			} else {
				runtime.Gosched()
			}
		}
		close(done)
	}()
	for i := 0; i < total; i++ {
		if err := q.Publish(msg("m")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pump stalled")
	}
}
