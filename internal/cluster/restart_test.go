package cluster

import (
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
)

// restartCluster starts a 1-node durable cluster (fsync=always, so a
// confirm implies the record is on disk) with the durable queue q
// declared on node 0.
func restartCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := broker.Config{DataDir: t.TempDir(), Durability: seglog.Options{Fsync: seglog.FsyncAlways}}
	c, err := StartWithOptions(1, Options{}, func(int) broker.Config { return cfg })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	conn, err := amqp.Dial("amqp://" + c.Node(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.QueueDeclare("q", true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// publishConfirmed publishes n durable messages (ids start..start+n-1)
// into q on node 0 and waits for every confirm, so the records are
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
		if err := ch.Publish("", "q", false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("sv-%d", start+i),
			Body:      []byte("restart-payload"),
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

// drainExactly reads deliveries from dc and asserts they are exactly the
// ids sv-start..sv-(start+want-1), each exactly once — a redelivered
// settled message shows up as an id out of range or an extra delivery.
func drainExactly(t *testing.T, dc <-chan amqp.Delivery, start, want int) {
	t.Helper()
	seen := map[string]int{}
	total := 0
	deadline := time.After(15 * time.Second)
	for total < want {
		select {
		case d := <-dc:
			seen[d.MessageID]++
			total++
		case <-deadline:
			t.Fatalf("drained %d of %d messages", total, want)
		}
	}
	// A duplicate would arrive right behind the expected set.
	select {
	case d := <-dc:
		t.Fatalf("message duplicated: extra delivery %q", d.MessageID)
	case <-time.After(300 * time.Millisecond):
	}
	for i := start; i < start+want; i++ {
		id := fmt.Sprintf("sv-%d", i)
		if seen[id] != 1 {
			t.Fatalf("message %s delivered %d times (seen %v)", id, seen[id], seen)
		}
	}
}

// TestNodeRestartKeepsSettledAcks: messages a reconnecting manual-ack
// consumer acked before its queue's node crashed are not redelivered
// after the node recovers, and messages published after recovery each
// reach the consumer once — the fsynced ack records survive the crash
// and the consumer resubscribes where it left off.
func TestNodeRestartKeepsSettledAcks(t *testing.T) {
	c := restartCluster(t)
	conn, err := amqp.DialConfig("amqp://"+c.Node(0).Addr(), amqp.Config{Reconnect: testReconnect})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ch.Consume("q", "", false, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	publishConfirmed(t, c, 0, 12)
	timeout := time.After(15 * time.Second)
	for i := 0; i < 12; i++ {
		select {
		case d := <-dc:
			if want := fmt.Sprintf("sv-%d", i); d.MessageID != want {
				t.Fatalf("delivery %d is %q, want %q", i, d.MessageID, want)
			}
			if err := d.Ack(false); err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("consumed %d of 12 messages", i)
		}
	}
	// Settled means acked at the broker: an ack still in flight when the
	// node crashes is redelivered after recovery, as at-least-once allows.
	q, _ := c.Node(0).VHost("/").Queue("q")
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Acked < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("broker acked %d of 12 consumed messages", q.Stats().Acked)
		}
		time.Sleep(2 * time.Millisecond)
	}

	c.Crash(0)
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}

	publishConfirmed(t, c, 12, 8)
	drainExactly(t, dc, 12, 8)
}

// TestNodeRestartKeepsConfirmedMessages: messages confirmed before their
// queue's node crashed survive its recovery exactly once (fsync=always
// makes a confirm durable), and publishing resumes once the node is back.
func TestNodeRestartKeepsConfirmedMessages(t *testing.T) {
	c := restartCluster(t)
	publishConfirmed(t, c, 0, 12)

	c.Crash(0)
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}

	publishConfirmed(t, c, 12, 8)
	conn, err := amqp.Dial("amqp://" + c.Node(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ch.Consume("q", "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	drainExactly(t, dc, 0, 20)
}
