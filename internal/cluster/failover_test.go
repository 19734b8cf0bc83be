package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/telemetry"
)

// queueOwnedBy scans queue names until one is mastered by the wanted node.
func queueOwnedBy(t *testing.T, c *Cluster, node int, prefix string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if c.OwnerOf(name) == node {
			return name
		}
	}
	t.Fatalf("no %s-* queue maps to node %d", prefix, node)
	return ""
}

var testReconnect = &amqp.ReconnectPolicy{MaxAttempts: 200, Delay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond}

// TestConsumeRedirectsToMaster: a consumer that dials the wrong node is
// redirected (connection.close 302) to the queue's master and keeps
// consuming there — the client follows the redirect transparently under
// its reconnect policy.
func TestConsumeRedirectsToMaster(t *testing.T) {
	c, err := StartWithOptions(3, Options{Federation: true}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qname := queueOwnedBy(t, c, 0, "redir-q")
	wrong := c.Node(1).Addr()

	followed := telemetry.Default.Counter("amqp.redirects")
	base := followed.Load()

	cons, err := amqp.DialConfig("amqp://"+wrong, amqp.Config{Reconnect: testReconnect})
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	cch, err := cons.Channel()
	if err != nil {
		t.Fatal(err)
	}
	// The declare is ensured on the master over a federation link and
	// answered locally; the consume redirects the whole connection.
	if _, err := cch.QueueDeclare(qname, false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	dc, err := cch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatalf("consume after redirect: %v", err)
	}

	prod, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pch, _ := prod.Channel()
	if err := pch.Publish("", qname, false, false, amqp.Publishing{Body: []byte("after-redirect")}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-dc:
		if string(d.Body) != "after-redirect" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery after redirect")
	}
	if followed.Load() == base {
		t.Fatal("client followed no redirect (amqp.redirects unchanged)")
	}
}

// TestPublishFederatesToRemoteMaster: a confirming producer attached to
// the wrong node publishes into a queue mastered elsewhere; the publish
// is forwarded over the federation link (zero-copy, confirm-bridged) and
// the producer's confirm reflects the master's verdict.
func TestPublishFederatesToRemoteMaster(t *testing.T) {
	c, err := StartWithOptions(3, Options{Federation: true}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qname := queueOwnedBy(t, c, 0, "fed-q")
	fed := telemetry.Default.Counter("cluster.federation_msgs")
	base := fed.Load()

	// Declare on the master, attach the consumer there.
	cons, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	cch, _ := cons.Channel()
	if _, err := cch.QueueDeclare(qname, false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	dc, err := cch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Producer on the wrong node, confirm mode: the forward bridges the
	// master's ack back to this channel.
	prod, err := amqp.Dial("amqp://" + c.Node(1).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pch, _ := prod.Channel()
	if err := pch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := pch.NotifyPublish(make(chan amqp.Confirmation, 4))
	const n = 8
	for i := 0; i < n; i++ {
		if err := pch.Publish("", qname, false, false, amqp.Publishing{Body: []byte("via-federation")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case conf := <-confirms:
			if !conf.Ack {
				t.Fatalf("publish %d nacked", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("confirm %d never bridged back", i)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case d := <-dc:
			if string(d.Body) != "via-federation" {
				t.Fatalf("got %q", d.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d missing on master", i)
		}
	}
	if got := fed.Load() - base; got < n {
		t.Fatalf("federation_msgs delta = %d, want >= %d", got, n)
	}
}

// TestKillFailsOverDurableQueue: hard-killing a queue's master moves its
// fsynced segment log to a surviving node, which replays it — nothing
// confirmed is lost across the failover.
func TestKillFailsOverDurableQueue(t *testing.T) {
	dir := t.TempDir()
	c, err := StartWithOptions(3, Options{Federation: true}, func(int) broker.Config {
		return broker.Config{DataDir: dir, Durability: seglog.Options{Fsync: seglog.FsyncAlways}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qname := queueOwnedBy(t, c, 1, "failover-q")
	prod, err := amqp.DialConfig("amqp://"+c.AddrFor(qname), amqp.Config{Reconnect: testReconnect, Seeds: c.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pch, _ := prod.Channel()
	if _, err := pch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := pch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := pch.NotifyPublish(make(chan amqp.Confirmation, 16))
	const n = 10
	for i := 0; i < n; i++ {
		if err := pch.Publish("", qname, false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("m-%d", i), Body: []byte("durable"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case conf := <-confirms:
			if !conf.Ack {
				t.Fatalf("publish %d nacked", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("confirm %d missing", i)
		}
	}

	moved, err := c.Kill(1)
	if err != nil {
		t.Fatalf("Kill: %v", err)
	}
	newMaster := -1
	for _, q := range moved {
		if q.Name == qname {
			newMaster = q.Node
		}
	}
	if newMaster < 0 || newMaster == 1 {
		t.Fatalf("queue %s not reassigned by Kill (moved=%v)", qname, moved)
	}
	if got := c.OwnerOf(qname); got != newMaster {
		t.Fatalf("OwnerOf = %d, want new master %d", got, newMaster)
	}

	// Drain from the new master: all ten fsynced messages must replay.
	cons, err := amqp.Dial("amqp://" + c.Node(newMaster).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	cch, _ := cons.Channel()
	dc, err := cch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case d := <-dc:
			got[d.MessageID] = true
		case <-timeout:
			t.Fatalf("replayed %d of %d confirmed messages after failover", len(got), n)
		}
	}
}

// TestKillPinsNewMasterOnlyOnceQueueExists watches the directory while a
// kill fails a durable queue over: whenever it names a new master, that
// node must already hold the queue. Pinned before the log was replayed
// there, a consumer re-dialing the new master got 404 "no queue" — a dead
// channel — and a publish landing there routed to nothing.
func TestKillPinsNewMasterOnlyOnceQueueExists(t *testing.T) {
	dir := t.TempDir()
	c, err := StartWithOptions(3, Options{Federation: true}, func(int) broker.Config {
		return broker.Config{DataDir: dir, Durability: seglog.Options{Fsync: seglog.FsyncNever}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qname := queueOwnedBy(t, c, 1, "pin-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	// A long log makes the replay on the new master take a while.
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 64))
	const n = 60000
	go func() {
		for i := 0; i < n; i++ {
			if ch.Publish("", qname, false, false, amqp.Publishing{Body: []byte("replay me")}) != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case <-confirms:
		case <-time.After(10 * time.Second):
			t.Fatalf("confirm %d missing", i)
		}
	}
	conn.Close()

	var early atomic.Int64 // directory lookups naming a master without the queue
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if owner := c.OwnerOf(qname); owner != 1 {
				if _, ok := c.Node(owner).VHost(defaultVHost).Queue(qname); !ok {
					early.Add(1)
				}
			}
		}
	}()
	_, err = c.Kill(1)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if c.OwnerOf(qname) == 1 {
		t.Fatal("queue not re-pinned by Kill")
	}
	if early.Load() > 0 {
		t.Fatalf("directory named the new master %d times before the queue existed there", early.Load())
	}
}

// TestRestartRejoinsRing is the Cluster.Restart regression: a node killed
// out of the ring and restarted must re-register with the placement ring
// and metadata directory — future placement can land on it again and its
// address answers lookups.
func TestRestartRejoinsRing(t *testing.T) {
	c, err := StartWithOptions(3, Options{Federation: true}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ring := c.Directory().Ring()
	if _, err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	if ring.Has(2) {
		t.Fatal("killed node still a ring member")
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if !ring.Has(2) {
		t.Fatal("restarted node did not rejoin the placement ring")
	}
	if c.Directory().Addr(2) == "" {
		t.Fatal("restarted node has no directory address")
	}
	// The rejoined node must serve traffic for a queue it masters.
	qname := queueOwnedBy(t, c, 2, "rejoin-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	dc, err := ch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Publish("", qname, false, false, amqp.Publishing{Body: []byte("back")}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-dc:
		if string(d.Body) != "back" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery from rejoined node")
	}
}

// TestRestartHandsQuiescentQueueBack kills the master of two durable
// queues, one empty and one holding a ready message, and restarts it. The
// join hands the empty queue back to the restarted node, which serves it;
// the busy queue stays on the survivor Kill moved it to, message and all.
func TestRestartHandsQuiescentQueueBack(t *testing.T) {
	dir := t.TempDir()
	c, err := StartWithOptions(3, Options{Federation: true}, func(int) broker.Config {
		return broker.Config{DataDir: dir, Durability: seglog.Options{Fsync: seglog.FsyncAlways}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const k = 1
	empty, busy := queueOwnedBy(t, c, k, "handback-q"), queueOwnedBy(t, c, k, "busy-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(empty))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	for _, q := range []string{empty, busy} {
		if _, err := ch.QueueDeclare(q, true, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.Confirm(false); err != nil {
		t.Fatal(err)
	}
	confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 1))
	if err := ch.Publish("", busy, false, false, amqp.Publishing{Body: []byte("stays")}); err != nil {
		t.Fatal(err)
	}
	select {
	case conf := <-confirms:
		if !conf.Ack {
			t.Fatal("publish to the busy queue nacked")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish to the busy queue never confirmed")
	}
	conn.Close()

	if _, err := c.Kill(k); err != nil {
		t.Fatalf("Kill(%d): %v", k, err)
	}
	survivor := c.OwnerOf(busy)
	if survivor == k || c.OwnerOf(empty) == k {
		t.Fatalf("Kill left a queue on node %d", k)
	}
	if err := c.Restart(k); err != nil {
		t.Fatalf("Restart(%d): %v", k, err)
	}
	if got := c.OwnerOf(empty); got != k {
		t.Fatalf("empty queue mastered by node %d after the restart, want %d", got, k)
	}
	if got := c.OwnerOf(busy); got != survivor {
		t.Fatalf("busy queue moved to node %d on the restart, want it kept on %d", got, survivor)
	}

	// The handed-back queue is served where the directory points.
	conn, err = amqp.Dial("amqp://" + c.AddrFor(empty))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, _ = conn.Channel()
	dc, err := ch.Consume(empty, "", true, false, false, false, nil)
	if err != nil {
		t.Fatalf("consume on the restarted node: %v", err)
	}
	if err := ch.Publish("", empty, false, false, amqp.Publishing{Body: []byte("home")}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-dc:
		if string(d.Body) != "home" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery from the handed-back queue")
	}
	if q, ok := c.Node(k).VHost(defaultVHost).Queue(empty); !ok || q.Stats().Published != 1 {
		t.Fatalf("node %d does not hold the handed-back queue's publish", k)
	}

	// The busy queue kept its message on the survivor.
	drained, err := amqp.Dial("amqp://" + c.Node(survivor).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer drained.Close()
	dch, _ := drained.Channel()
	bc, err := dch.Consume(busy, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-bc:
		if string(d.Body) != "stays" {
			t.Fatalf("busy queue delivered %q", d.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("busy queue lost its message")
	}
}
