package cluster

import (
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
)

// shovelCrashCluster starts a 2-node durable cluster (fsync=always, so a
// confirm implies the record is on disk) with src-q mastered on node 0
// and dst-q on node 1, both declared durable.
func shovelCrashCluster(t *testing.T) *Cluster {
	t.Helper()
	dir := t.TempDir()
	cfg := broker.Config{DataDir: dir, Durability: seglog.Options{Fsync: seglog.FsyncAlways}}
	c, err := StartWithOptions(2, Options{}, func(int) broker.Config { return cfg })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i, q := range []string{"src-q", "dst-q"} {
		conn, err := amqp.Dial("amqp://" + c.Node(i).Addr())
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := conn.Channel()
		if _, err := ch.QueueDeclare(q, true, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	return c
}

// publishConfirmed publishes n durable messages (ids start..start+n-1)
// into src-q on node 0 and waits for every confirm, so the records are
// fsynced before the caller crashes anything.
func publishConfirmed(t *testing.T, c *Cluster, start, n int) {
	t.Helper()
	conn, err := amqp.DialConfig("amqp://"+c.Node(0).Addr(), amqp.Config{Reconnect: testReconnect})
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
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, n))
	for i := 0; i < n; i++ {
		if err := ch.Publish("", "src-q", false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("sv-%d", start+i),
			Body:      []byte("shovel-payload"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case conf := <-confirms:
			if !conf.Ack {
				t.Fatalf("publish %d nacked", start+i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("confirm %d missing", start+i)
		}
	}
}

// waitMoved blocks until the shovel has settled want messages.
func waitMoved(t *testing.T, sh *Shovel, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for sh.Moved() < want {
		if time.Now().After(deadline) {
			t.Fatalf("shovel settled %d of %d", sh.Moved(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drainExactly consumes dst-q on node 1 and asserts it holds exactly the
// ids sv-0..sv-(want-1), each exactly once — a duplicate of a settled
// message shows up as an extra delivery.
func drainExactly(t *testing.T, c *Cluster, want int) {
	t.Helper()
	conn, err := amqp.Dial("amqp://" + c.Node(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, _ := conn.Channel()
	dc, err := ch.Consume("dst-q", "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	total := 0
	deadline := time.After(15 * time.Second)
	for total < want {
		select {
		case d := <-dc:
			seen[d.MessageID]++
			total++
		case <-deadline:
			t.Fatalf("drained %d of %d settled messages", total, want)
		}
	}
	// A settled duplicate would arrive right behind the expected set.
	select {
	case d := <-dc:
		t.Fatalf("settled message duplicated: extra delivery %q", d.MessageID)
	case <-time.After(300 * time.Millisecond):
	}
	for i := 0; i < want; i++ {
		id := fmt.Sprintf("sv-%d", i)
		if seen[id] != 1 {
			t.Fatalf("message %s delivered %d times", id, seen[id])
		}
	}
}

// TestShovelSurvivesSourceNodeRestart: messages settled before a source
// node crash are not re-moved after it recovers, and messages published
// after recovery still flow — the reconnecting shovel picks up exactly
// where the fsynced cursor left it.
func TestShovelSurvivesSourceNodeRestart(t *testing.T) {
	c := shovelCrashCluster(t)
	sh, err := NewShovel(ShovelConfig{
		SourceURL: "amqp://" + c.Node(0).Addr(), SourceQ: "src-q",
		DestURL: "amqp://" + c.Node(1).Addr(), DestQ: "dst-q",
		Reconnect: testReconnect,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	publishConfirmed(t, c, 0, 12)
	waitMoved(t, sh, 12)
	// Settled means acked at the source broker. The shovel counts an ack
	// once it is written, and one still in flight when the node crashes
	// is redelivered after recovery, as at-least-once allows.
	src, _ := c.Node(0).VHost("/").Queue("src-q")
	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Acked < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("source broker acked %d of 12 moved messages", src.Stats().Acked)
		}
		time.Sleep(2 * time.Millisecond)
	}

	c.Crash(0)
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}

	publishConfirmed(t, c, 12, 8)
	waitMoved(t, sh, 20)
	drainExactly(t, c, 20)
}

// TestShovelSurvivesDestNodeRestart: the destination node crashing under
// the shovel must not duplicate settled messages (settle-after-confirm:
// a source ack only follows a destination confirm, and fsync=always makes
// that confirm durable) nor lose the stream — publishing resumes once the
// node recovers.
func TestShovelSurvivesDestNodeRestart(t *testing.T) {
	c := shovelCrashCluster(t)
	sh, err := NewShovel(ShovelConfig{
		SourceURL: "amqp://" + c.Node(0).Addr(), SourceQ: "src-q",
		DestURL: "amqp://" + c.Node(1).Addr(), DestQ: "dst-q",
		Reconnect: testReconnect,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	publishConfirmed(t, c, 0, 12)
	waitMoved(t, sh, 12)

	c.Crash(1)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}

	publishConfirmed(t, c, 12, 8)
	waitMoved(t, sh, 20)
	drainExactly(t, c, 20)
}
