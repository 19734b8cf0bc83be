package broker

import (
	"fmt"
	"sync"
	"testing"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/wire"
)

// newManaged builds a managed message with a pooled body of n bytes.
func newManaged(t *testing.T, key string, n int) *Message {
	t.Helper()
	m := NewMessage("", key, wire.Properties{}, n)
	m.AppendBody(make([]byte, n))
	return m
}

// checkBalance asserts the wire pool's outstanding loan bytes are back to
// the captured baseline — the invariant every message exit path must
// restore.
func checkBalance(t *testing.T, label string, base int64) {
	t.Helper()
	if got := wire.LoanedBytes(); got != base {
		t.Fatalf("%s: loaned bytes = %d, want baseline %d (refcount leak or double release)", label, got, base)
	}
}

// TestRefcountLifecycleBalance drives a managed message through every
// broker exit path — ack (Get + release), nack+requeue, drop-head
// eviction, reject-publish, purge, and queue delete, with and without
// deliveries pending on a consumer — and asserts the pool balance returns
// to zero after each.
func TestRefcountLifecycleBalance(t *testing.T) {
	base := wire.LoanedBytes()

	t.Run("route-to-nowhere", func(t *testing.T) {
		vh := NewVHost("/")
		m := newManaged(t, "absent", 1024)
		if routed, err := vh.Publish("", "absent", m); err != nil || routed != 0 {
			t.Fatalf("routed=%d err=%v", routed, err)
		}
		m.Release()
		checkBalance(t, "unrouted publish", base)
	})

	t.Run("deliver-and-ack", func(t *testing.T) {
		vh := NewVHost("/")
		q, _ := vh.DeclareQueue("ack-q", false, false, false, false, nil)
		m := newManaged(t, "ack-q", 1024)
		if _, err := vh.Publish("", "ack-q", m); err != nil {
			t.Fatal(err)
		}
		m.Release()
		got, _, _, _, ok := q.Get()
		if !ok {
			t.Fatal("message not routed")
		}
		got.Release() // the ack path's release of the queue reference
		checkBalance(t, "ack", base)
	})

	t.Run("fanout-shared", func(t *testing.T) {
		vh := NewVHost("/")
		q1, _ := vh.DeclareQueue("fan-1", false, false, false, false, nil)
		q2, _ := vh.DeclareQueue("fan-2", false, false, false, false, nil)
		e, _ := vh.DeclareExchange("fan", KindFanout, false)
		e.Bind(q1, "")
		e.Bind(q2, "")
		m := newManaged(t, "", 4096)
		if routed, err := vh.Publish("fan", "", m); err != nil || routed != 2 {
			t.Fatalf("routed=%d err=%v", routed, err)
		}
		m.Release()
		m1, _, _, _, _ := q1.Get()
		m1.Release()
		checkBalance(t, "fanout after first queue only", base+int64(cap(*m.loan))) // second queue still holds it
		m2, _, _, _, _ := q2.Get()
		m2.Release()
		checkBalance(t, "fanout", base)
	})

	t.Run("nack-requeue-then-ack", func(t *testing.T) {
		vh := NewVHost("/")
		q, _ := vh.DeclareQueue("rq-q", false, false, false, false, nil)
		m := newManaged(t, "rq-q", 1024)
		if _, err := vh.Publish("", "rq-q", m); err != nil {
			t.Fatal(err)
		}
		m.Release()
		got, _, _, _, _ := q.Get()
		q.RequeueAll([]*Message{got}, []uint64{offNone}) // nack: the reference moves back to the queue
		again, _, redelivered, _, ok := q.Get()
		if !ok || !redelivered || again != got {
			t.Fatalf("requeue lost the message: ok=%v redelivered=%v", ok, redelivered)
		}
		again.Release()
		checkBalance(t, "nack+requeue", base)
	})

	t.Run("drop-head-overflow", func(t *testing.T) {
		vh := NewVHost("/")
		q, err := vh.DeclareQueue("dh-q", false, false, false, false, wire.Table{
			"x-max-length": int32(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			m := newManaged(t, "dh-q", 2048)
			if _, err := vh.Publish("", "dh-q", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		if q.Stats().Dropped != 2 {
			t.Fatalf("Dropped = %d, want 2", q.Stats().Dropped)
		}
		last, _, _, _, _ := q.Get()
		last.Release()
		checkBalance(t, "drop-head", base)
	})

	t.Run("reject-publish", func(t *testing.T) {
		vh := NewVHost("/")
		if _, err := vh.DeclareQueue("rp-q", false, false, false, false, wire.Table{
			"x-max-length": int32(1),
			"x-overflow":   OverflowRejectPublish,
		}); err != nil {
			t.Fatal(err)
		}
		m1 := newManaged(t, "rp-q", 512)
		if _, err := vh.Publish("", "rp-q", m1); err != nil {
			t.Fatal(err)
		}
		m1.Release()
		m2 := newManaged(t, "rp-q", 512)
		if _, err := vh.Publish("", "rp-q", m2); err != ErrQueueFull {
			t.Fatalf("err = %v, want ErrQueueFull", err)
		}
		m2.Release()
		q, _ := vh.Queue("rp-q")
		kept, _, _, _, _ := q.Get()
		kept.Release()
		checkBalance(t, "reject-publish", base)
	})

	t.Run("purge", func(t *testing.T) {
		vh := NewVHost("/")
		q, _ := vh.DeclareQueue("pg-q", false, false, false, false, nil)
		for i := 0; i < 5; i++ {
			m := newManaged(t, "pg-q", 1024)
			if _, err := vh.Publish("", "pg-q", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		if n := q.Purge(); n != 5 {
			t.Fatalf("Purge = %d, want 5", n)
		}
		checkBalance(t, "purge", base)
	})

	t.Run("queue-delete", func(t *testing.T) {
		vh := NewVHost("/")
		if _, err := vh.DeclareQueue("del-q", false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			m := newManaged(t, "del-q", 1024)
			if _, err := vh.Publish("", "del-q", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		if n, err := vh.DeleteQueue("del-q", false, false); err != nil || n != 3 {
			t.Fatalf("delete: n=%d err=%v", n, err)
		}
		checkBalance(t, "queue delete", base)
	})

	t.Run("delete-with-pending", func(t *testing.T) {
		vh := NewVHost("/")
		q, _ := vh.DeclareQueue("dp-q", false, false, false, false, nil)
		if _, err := q.AddConsumer("c", false, 2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			m := newManaged(t, "dp-q", 1024)
			if _, err := vh.Publish("", "dp-q", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		if q.Len() != 1 {
			t.Fatalf("%d ready, want 1 beside 2 pending on the consumer", q.Len())
		}
		if _, err := vh.DeleteQueue("dp-q", false, false); err != nil {
			t.Fatal(err)
		}
		checkBalance(t, "queue delete with pending deliveries", base)
	})

	t.Run("requeue-after-delete", func(t *testing.T) {
		vh := NewVHost("/")
		q, _ := vh.DeclareQueue("rd-q", false, false, false, false, nil)
		m := newManaged(t, "rd-q", 1024)
		if _, err := vh.Publish("", "rd-q", m); err != nil {
			t.Fatal(err)
		}
		m.Release()
		got, _, _, _, _ := q.Get()
		if _, err := vh.DeleteQueue("rd-q", false, false); err != nil {
			t.Fatal(err)
		}
		// A teardown requeue racing the delete must release, not park.
		q.RequeueAll([]*Message{got}, []uint64{offNone})
		checkBalance(t, "requeue after delete", base)
	})
}

// newDurableVHost builds a vhost whose durable declares open segment logs
// under a test temp dir, without needing a full Server.
func newDurableVHost(t *testing.T, opts seglog.Options) *VHost {
	t.Helper()
	vh := NewVHost("/")
	vh.logDir = t.TempDir()
	vh.logOpts = opts
	return vh
}

// TestDurableLifecycleBalance drives pooled bodies through the durable
// exit paths the plain lifecycle test can't reach — spill to the segment
// log, crash, recovery restore, compaction after full settle, and durable
// queue delete — and asserts the wire-loan balance returns to baseline
// after each.
func TestDurableLifecycleBalance(t *testing.T) {
	base := wire.LoanedBytes()

	t.Run("spill-deliver-commit", func(t *testing.T) {
		vh := newDurableVHost(t, seglog.Options{})
		q, err := vh.DeclareQueue("d-q", true, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newManaged(t, "d-q", 2048)
		if _, err := vh.Publish("", "d-q", m); err != nil {
			t.Fatal(err)
		}
		m.Release()
		if q.log.DiskBytes() == 0 {
			t.Fatal("durable publish wrote no bytes to the segment log")
		}
		got, off, _, _, ok := q.Get()
		if !ok {
			t.Fatal("durable message not delivered")
		}
		got.Release()
		q.Commit(off)
		checkBalance(t, "durable deliver+commit", base)
	})

	t.Run("crash-restore-delete", func(t *testing.T) {
		vh := newDurableVHost(t, seglog.Options{Fsync: seglog.FsyncAlways})
		q, err := vh.DeclareQueue("cr-q", true, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			m := newManaged(t, "cr-q", 1024)
			if _, err := vh.Publish("", "cr-q", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		// Settle one so recovery has an acked prefix to drop.
		m0, off, _, _, _ := q.Get()
		m0.Release()
		q.Commit(off)

		// Hard-kill the node: ready bodies go back to the pool, disk keeps
		// the kill-point state.
		vh.crash()
		checkBalance(t, "after crash", base)

		// Restore into a fresh vhost over the same directory.
		vh2 := NewVHost("/")
		vh2.logDir = vh.logDir
		vh2.logOpts = vh.logOpts
		q2, err := vh2.DeclareQueue("cr-q", true, false, false, false, nil)
		if err != nil {
			t.Fatalf("recovery declare: %v", err)
		}
		if q2.Len() != 3 {
			t.Fatalf("recovered %d messages, want 3", q2.Len())
		}
		// Deleting the durable queue must release every restored body and
		// remove the on-disk log.
		if _, err := vh2.DeleteQueue("cr-q", false, false); err != nil {
			t.Fatal(err)
		}
		checkBalance(t, "durable delete after restore", base)
	})

	t.Run("compaction-after-settle", func(t *testing.T) {
		// Tiny segments force rotation; settling everything must let
		// head-compaction reclaim the sealed prefix without disturbing the
		// loan balance.
		vh := newDurableVHost(t, seglog.Options{SegmentBytes: 1 << 10})
		q, err := vh.DeclareQueue("cp-q", true, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			m := newManaged(t, "cp-q", 512)
			if _, err := vh.Publish("", "cp-q", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		if q.log.SegmentCount() < 2 {
			t.Fatalf("expected rotation, have %d segment(s)", q.log.SegmentCount())
		}
		before := q.log.DiskBytes()
		for q.Len() > 0 {
			m, off, _, _, _ := q.Get()
			m.Release()
			q.Commit(off)
		}
		if after := q.log.DiskBytes(); after >= before {
			t.Fatalf("compaction reclaimed nothing: %d -> %d bytes", before, after)
		}
		checkBalance(t, "compaction", base)
	})

	t.Run("replay-consumer-drain", func(t *testing.T) {
		vh := newDurableVHost(t, seglog.Options{RetainAll: true})
		q, err := vh.DeclareQueue("rp-d", true, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			m := newManaged(t, "rp-d", 768)
			if _, err := vh.Publish("", "rp-d", m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		cons, err := q.AddReplayConsumer("cold", 0)
		if err != nil {
			t.Fatal(err)
		}
		// Receive the full history; the replay loop then blocks tailing the
		// log with no message in hand, so cancellation holds no references.
		for i := 0; i < 3; i++ {
			takeWait(t, q, cons).msg.Release()
		}
		q.RemoveConsumer(cons)
		// The ready copies are still parked in the queue; delete releases
		// them and the log.
		if _, err := vh.DeleteQueue("rp-d", false, false); err != nil {
			t.Fatal(err)
		}
		checkBalance(t, "replay drain", base)
	})
}

// TestMessageDoubleReleasePanics locks in the over-release tripwire: a
// Release (or Retain) after the final release panics instead of silently
// corrupting the pools.
func TestMessageDoubleReleasePanics(t *testing.T) {
	m := NewMessage("", "q", wire.Properties{}, 64)
	m.Release()
	mustPanic(t, "double release", func() { m.Release() })

	m2 := NewMessage("", "q", wire.Properties{}, 64)
	m2.Release()
	mustPanic(t, "retain after release", func() { m2.Retain() })
}

// TestUnmanagedMessageNoOps locks in the compatibility contract: composite
// literal messages ignore the refcount lifecycle entirely.
func TestUnmanagedMessageNoOps(t *testing.T) {
	base := wire.LoanedBytes()
	m := &Message{RoutingKey: "q", Body: []byte("x")}
	m.Retain()
	m.Release()
	m.Release() // still a no-op, never a panic
	checkBalance(t, "unmanaged", base)
}

func mustPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	f()
}

// TestServerCloseReleasesQueuedBodies: a clean shutdown hands the bodies
// still queued — ready, or requeued after a delivery — back to the pool,
// without settling them: a durable queue's next incarnation recovers every
// one, since Close writes no ack record for what it drops from memory.
func TestServerCloseReleasesQueuedBodies(t *testing.T) {
	base := wire.LoanedBytes()
	dir := t.TempDir()
	listen := func() *Server {
		t.Helper()
		s, err := Listen(Config{Addr: "127.0.0.1:0", DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := listen()
	vh := s.VHost("/")
	const n = 4
	for _, q := range []struct {
		name    string
		durable bool
	}{{"close-mem", false}, {"close-disk", true}} {
		queue, err := vh.DeclareQueue(q.name, q.durable, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			m := newManaged(t, q.name, 1024)
			if _, err := vh.Publish("", q.name, m); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
		// One delivery comes back unacknowledged, as a dying consumer's would.
		m, off, _, _, ok := queue.Get()
		if !ok {
			t.Fatal("nothing queued")
		}
		queue.RequeueAll([]*Message{m}, []uint64{off})
	}
	if wire.LoanedBytes() == base {
		t.Fatal("queued bodies hold no loans; the test would prove nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, "after Close", base)

	s = listen()
	q, ok := s.VHost("/").Queue("close-disk")
	if !ok || q.Len() != n {
		t.Fatalf("durable queue recovered ok=%v len=%d, want all %d messages unsettled", ok, q.Len(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, "after recovery and Close", base)
}

// settleLog is a ClusterHook that masters every queue locally and counts
// the durable settlements the broker commits, per offset.
type settleLog struct {
	bridgeHook
	mu      sync.Mutex
	settled map[uint64]int
}

func (h *settleLog) ReplicateSettle(_, _ string, off uint64, offs []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if offs == nil {
		offs = []uint64{off}
	}
	for _, o := range offs {
		h.settled[o]++
	}
}

// TestChannelCloseRacingAcks closes the server while a client's consumer
// streams multiple acks over deliveries of a durable and a transient
// queue on one channel, so the channel teardown that Server.Close runs
// races the serve goroutine's settles. Each durable message is then either settled once
// or back on the queue, never both: on reconnect to a server recovering
// the same directory, nothing settled is delivered again and everything
// unsettled is. Every body returns to the pool.
func TestChannelCloseRacingAcks(t *testing.T) {
	const n = 256
	base := wire.LoanedBytes()
	hook := &settleLog{settled: map[uint64]int{}}
	cfg := Config{Addr: "127.0.0.1:0", DataDir: t.TempDir(), Durability: seglog.Options{Fsync: seglog.FsyncNever}, Cluster: hook}
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offs := map[string]uint64{} // durable body → offset
	for _, name := range []string{"race-durable", "race-transient"} {
		q, err := s.VHost("/").DeclareQueue(name, name == "race-durable", false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			body := fmt.Sprint(i)
			m := NewMessage("", name, wire.Properties{}, len(body))
			m.AppendBody([]byte(body))
			off, err := q.PublishOff(m) // the queue takes the reference
			if err != nil {
				t.Fatal(err)
			}
			if q.log != nil {
				offs[body] = off
			}
		}
	}

	conn, err := amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Qos(32, 0, false); err != nil {
		t.Fatal(err)
	}
	// Both consumers run on the connection's owner goroutine, which acks
	// every fourth delivery of either queue with one multiple ack.
	halfway := make(chan struct{})
	got := 0
	onDelivery := func(d amqp.Delivery) {
		got++
		if got%4 == 0 {
			_ = d.Ack(true) // fails once the server is gone
		}
		if got == n/2 {
			close(halfway)
		}
	}
	for _, name := range []string{"race-durable", "race-transient"} {
		if _, err := ch.ConsumeFunc(name, "", false, false, false, nil, onDelivery); err != nil {
			t.Fatal(err)
		}
	}
	<-halfway
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close() // waits for the owner goroutine, and so for the last ack
	checkBalance(t, "after Close", base)

	hook.mu.Lock()
	for off, times := range hook.settled {
		if times != 1 {
			t.Errorf("offset %d settled %d times", off, times)
		}
	}
	settled := len(hook.settled)
	hook.mu.Unlock()
	if settled == 0 {
		t.Fatal("no durable settlement before Close; the race went untested")
	}
	cfg.Cluster = &settleLog{settled: map[uint64]int{}}
	s, err = Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err = amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if ch, err = conn.Channel(); err != nil {
		t.Fatal(err)
	}
	redelivered := 0
	for {
		d, ok, err := ch.Get("race-durable", true)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		off, known := offs[string(d.Body)]
		if !known {
			t.Fatalf("recovered unknown body %q", d.Body)
		}
		hook.mu.Lock()
		times := hook.settled[off]
		hook.mu.Unlock()
		if times != 0 {
			t.Fatalf("body %q was settled and is delivered again", d.Body)
		}
		redelivered++
	}
	if redelivered+settled != n {
		t.Fatalf("%d settled and %d delivered again, want %d in all", settled, redelivered, n)
	}
	conn.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkBalance(t, "after recovery and Close", base)
}
