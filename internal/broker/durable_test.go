package broker

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker/seglog"
)

// TestCrashingNodeRaisesNoChannelException holds a node in the window
// Crash opens — marked down, queues torn down, connections not dropped
// yet — and consumes from a queue the crash removed. The client must see
// its transport drop, not a channel exception: a reconnecting client
// resumes its channels after a transport loss but gives a channel up
// after an exception, so a consumer replaying onto a dying node was lost.
func TestCrashingNodeRaisesNoChannelException(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.QueueDeclare("crash-window-q", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	closed := ch.NotifyClose(make(chan *amqp.Error, 1))

	s.mu.Lock()
	s.closed = true
	vhosts := make([]*VHost, 0, len(s.vhosts))
	for _, vh := range s.vhosts {
		vhosts = append(vhosts, vh)
	}
	s.mu.Unlock()
	for _, vh := range vhosts {
		vh.crash()
	}
	if _, err := ch.Consume("crash-window-q", "", false, false, false, false, nil); err == nil {
		t.Fatal("consume on a crashed queue succeeded")
	}
	if e := <-closed; e != nil {
		t.Fatalf("crashing node raised a channel exception: %v", e)
	}

	// Let Crash run its second half: drop connections, stop accepting.
	s.mu.Lock()
	s.closed = false
	s.mu.Unlock()
	s.Crash()
}

// TestDurableHardKillRecovery is the headline crash scenario, end to end
// over real AMQP: a publisher streams confirmed messages into a durable
// queue (fsync=always, so confirm implies durable), the broker settles a
// prefix of them as acked, and then the node is hard-killed mid-publish —
// Server.Crash drops unflushed buffers and connections with no graceful
// teardown, exactly as SIGKILL would. A second broker recovering from the
// same data directory must re-enqueue exactly the confirmed-but-unsettled
// messages: zero acked-message loss, no resurrection of settled ones, and
// nothing the log never confirmed.
func TestDurableHardKillRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Addr:       "127.0.0.1:0",
		DataDir:    dir,
		Durability: seglog.Options{Fsync: seglog.FsyncAlways},
	}
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 1024))
	if _, err := ch.QueueDeclare("crash-q", true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}

	// Confirmation collector: tag i corresponds to the i-th publish
	// (1-based), i.e. body "msg-<i-1>".
	var mu sync.Mutex
	confirmed := map[uint64]bool{}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for c := range confirms {
			if c.Ack {
				mu.Lock()
				confirmed[c.DeliveryTag] = true
				mu.Unlock()
			}
		}
	}()

	// Publisher: streams until the crash kills the connection. published
	// counts bodies handed to the client, an upper bound on what can ever
	// be recovered.
	var published int
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 0; ; i++ {
			err := ch.Publish("", "crash-q", false, false, amqp.Publishing{
				DeliveryMode: 2,
				Body:         []byte(fmt.Sprintf("msg-%d", i)),
			})
			if err != nil {
				return
			}
			mu.Lock()
			published = i + 1
			mu.Unlock()
		}
	}()

	// Let the stream establish — until confirms have come back for more
	// than the prefix settled below (they arrive in batches, one per
	// broker read) — then settle that prefix server-side through the real
	// ack path (pop + commit — what basic.ack does), so recovery must
	// prove settled messages stay dead.
	const settlePrefix = 15
	q, _ := s.VHost("/").Queue("crash-q")
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		acked := len(confirmed)
		mu.Unlock()
		if q.Len() >= 40 && acked > settlePrefix {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publisher stalled: queue depth %d, %d confirmed", q.Len(), acked)
		}
		time.Sleep(time.Millisecond)
	}
	settled := map[string]bool{}
	for i := 0; i < settlePrefix; i++ {
		m, off, _, _, ok := q.Get()
		if !ok {
			t.Fatal("settle pop came up empty")
		}
		settled[string(m.Body)] = true
		m.Release()
		q.Commit(off)
	}

	// Hard kill, mid-publish.
	s.Crash()
	conn.Close() // unblocks the client goroutines promptly
	<-pubDone
	select {
	case <-collectorDone:
	case <-time.After(5 * time.Second):
		t.Fatal("confirmation collector did not drain")
	}

	mu.Lock()
	wantAlive := map[string]bool{}
	for tag := range confirmed {
		body := fmt.Sprintf("msg-%d", tag-1)
		if !settled[body] {
			wantAlive[body] = true
		}
	}
	pubCount := published
	mu.Unlock()
	if len(wantAlive) == 0 {
		t.Fatal("no confirmed-unsettled messages before the crash; test proved nothing")
	}

	// Recover on a fresh node from the same data directory.
	s2, err := Listen(Config{Addr: "127.0.0.1:0", DataDir: dir, Durability: cfg.Durability})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	q2, ok := s2.VHost("/").Queue("crash-q")
	if !ok {
		t.Fatal("durable queue not recovered")
	}
	recovered := map[string]bool{}
	for {
		m, off, redelivered, _, ok := q2.Get()
		if !ok {
			break
		}
		if !redelivered {
			t.Errorf("recovered %q not flagged redelivered", m.Body)
		}
		recovered[string(m.Body)] = true
		m.Release()
		q2.Commit(off)
	}

	// Zero acked-message loss: everything confirmed and unsettled is back.
	for body := range wantAlive {
		if !recovered[body] {
			t.Errorf("confirmed message %q lost across the crash", body)
		}
	}
	// No resurrection, no phantoms: recovered ⊆ published minus settled.
	for body := range recovered {
		if settled[body] {
			t.Errorf("settled message %q resurrected by recovery", body)
		}
	}
	if len(recovered) > pubCount {
		t.Errorf("recovered %d messages, published only %d", len(recovered), pubCount)
	}
	t.Logf("published≥%d confirmed=%d settled=%d recovered=%d",
		pubCount, len(wantAlive)+len(settled), len(settled), len(recovered))
}

// TestDurableReplayConsumer exercises the cold-replay path end to end: a
// durable queue with full retention is published to and fully consumed
// and acked; a consumer then attaches with x-stream-offset 0 and must
// receive the entire history again, in order, and keep following the
// live tail.
func TestDurableReplayConsumer(t *testing.T) {
	s, err := Listen(Config{
		Addr:       "127.0.0.1:0",
		DataDir:    t.TempDir(),
		Durability: seglog.Options{RetainAll: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 64))
	if _, err := ch.QueueDeclare("replay-q", true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}

	const n = 10
	live, err := ch.Consume("replay-q", "live", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ch.Publish("", "replay-q", false, false, amqp.Publishing{
			Body: []byte(fmt.Sprintf("hist-%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
		<-confirms
	}
	for i := 0; i < n; i++ {
		select {
		case d := <-live:
			if err := d.Ack(false); err != nil {
				t.Fatal(err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("live consumer starved at %d", i)
		}
	}

	// Cold replay from offset 0: the acked history must come back.
	replay, err := ch.Consume("replay-q", "cold", true, false, false, false,
		amqp.Table{"x-stream-offset": int32(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case d := <-replay:
			if want := fmt.Sprintf("hist-%d", i); string(d.Body) != want {
				t.Fatalf("replay[%d] = %q, want %q", i, d.Body, want)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("replay starved at %d", i)
		}
	}

	// The replay consumer keeps following the tail.
	if err := ch.Publish("", "replay-q", false, false, amqp.Publishing{
		Body: []byte("tail-0"),
	}); err != nil {
		t.Fatal(err)
	}
	<-confirms
	select {
	case d := <-replay:
		if string(d.Body) != "tail-0" {
			t.Fatalf("tail delivery = %q", d.Body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("replay consumer did not follow the tail")
	}
	select {
	case d := <-live:
		if err := d.Ack(false); err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("live consumer missed the tail publish")
	}
}

// TestDurableGracefulCloseRecovery locks in the clean-shutdown contract:
// Close flushes and fsyncs every queue log, so a restart recovers the
// full unacked set with no truncation even under fsync=never.
func TestDurableGracefulCloseRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Listen(Config{Addr: "127.0.0.1:0", DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	vh := s.VHost("/")
	if _, err := vh.DeclareQueue("grace-q", true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		m := newManaged(t, "grace-q", 256)
		if _, err := vh.Publish("", "grace-q", m); err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Listen(Config{Addr: "127.0.0.1:0", DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	q, ok := s2.VHost("/").Queue("grace-q")
	if !ok {
		t.Fatal("queue not recovered")
	}
	if q.Len() != 7 {
		t.Fatalf("recovered %d messages, want 7", q.Len())
	}
	for q.Len() > 0 {
		m, _, _, _, _ := q.Get()
		m.Release()
	}
}

// TestDurableQueueDeleteRemovesLog: explicit deletion destroys the
// on-disk history — a restart finds nothing to recover.
func TestDurableQueueDeleteRemovesLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Listen(Config{Addr: "127.0.0.1:0", DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	vh := s.VHost("/")
	if _, err := vh.DeclareQueue("del-d", true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	m := newManaged(t, "del-d", 64)
	if _, err := vh.Publish("", "del-d", m); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if _, err := vh.DeleteQueue("del-d", false, false); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Listen(Config{Addr: "127.0.0.1:0", DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.VHost("/").Queue("del-d"); ok {
		t.Fatal("deleted durable queue came back after restart")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sub, _ := os.ReadDir(fmt.Sprintf("%s/%s", dir, e.Name()))
		if len(sub) != 0 {
			t.Fatalf("leftover durable state: %s/%v", e.Name(), sub)
		}
	}
}
