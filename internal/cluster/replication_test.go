package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// startReplicated launches a 3-node cluster with replication factor 2
// (every durable queue gets one synchronous mirror) on per-node data
// directories under dir, fsync=always so a confirm implies durable.
func startReplicated(t *testing.T, dir string) *Cluster {
	t.Helper()
	c, err := StartWithOptions(3, Options{Federation: true, ReplicationFactor: 2}, func(int) broker.Config {
		return broker.Config{DataDir: dir, Durability: seglog.Options{Fsync: seglog.FsyncAlways}}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitGauge polls a telemetry gauge until its delta from base reaches
// want.
func waitGauge(t *testing.T, g *telemetry.Gauge, base, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Load()-base < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, g.Load()-base, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// publishConfirmed publishes n identified durable messages to qname via
// the cluster's address for it and waits for every confirm. With a
// replicated queue in sync, each confirm certifies the record is
// appended on the master AND its mirror.
func publishReplicated(t *testing.T, c *Cluster, qname string, n int) {
	t.Helper()
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
	confirms := pch.NotifyPublish(make(chan amqp.Confirmation, n))
	for i := 0; i < n; i++ {
		if err := pch.Publish("", qname, false, false, amqp.Publishing{
			MessageID: fmt.Sprintf("m-%d", i), Body: []byte("replicated"),
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
}

// drainAll consumes from qname on the given node until n distinct
// MessageIDs arrive.
func drainAll(t *testing.T, c *Cluster, node int, qname string, n int) {
	t.Helper()
	cons, err := amqp.Dial("amqp://" + c.Node(node).Addr())
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
			t.Fatalf("drained %d of %d confirmed messages", len(got), n)
		}
	}
}

// denyDir makes a node's data directory unreadable, so any failover that
// tried to relocate (or even list) the dead node's segment logs would
// error instead of silently falling back to shared-storage semantics.
func denyDir(t *testing.T, dir string, node int) {
	t.Helper()
	nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", node))
	if err := os.Chmod(nodeDir, 0o000); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(nodeDir, 0o755) })
}

// TestReplicatedKillPromotesMirror is the headline replication guarantee:
// kill a replicated queue's master with the dead node's data directory
// made unreadable first — the failover must complete by promoting the
// in-sync mirror from the surviving node's own disk (zero segment-log
// relocation) and every confirmed message must survive.
func TestReplicatedKillPromotesMirror(t *testing.T) {
	dir := t.TempDir()
	c := startReplicated(t, dir)

	insync := telemetry.Default.Gauge("cluster.insync_mirrors")
	insyncBase := insync.Load()
	promoted := telemetry.Default.Counter("cluster.promotions")
	promBase := promoted.Load()

	qname := queueOwnedBy(t, c, 1, "repl-q")
	// Declare first so the mirror exists and is in sync before the
	// publishes: every confirm below is then replication-gated.
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors")

	const n = 10
	publishReplicated(t, c, qname, n)

	// The dead node's disk is gone as far as the failover is concerned.
	denyDir(t, dir, 1)
	moved, err := c.Kill(1)
	if err != nil {
		t.Fatalf("Kill with unreadable dead dir: %v", err)
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
	if got := promoted.Load() - promBase; got < 1 {
		t.Fatalf("promotions delta = %d, want >= 1 (failover did not promote the mirror)", got)
	}
	drainAll(t, c, newMaster, qname, n)
}

// TestReplicatedDoubleKill chases the data: kill the master, wait for
// the promoted mirror to re-replicate onto the last survivor (a
// mid-stream catch-up resync), then kill the promoted master too. Two
// promotions, both dead directories unreadable, zero confirmed loss.
func TestReplicatedDoubleKill(t *testing.T) {
	dir := t.TempDir()
	c := startReplicated(t, dir)

	insync := telemetry.Default.Gauge("cluster.insync_mirrors")
	insyncBase := insync.Load()
	promoted := telemetry.Default.Counter("cluster.promotions")
	promBase := promoted.Load()
	catchups := telemetry.Default.Counter("cluster.mirror_catchups")
	cuBase := catchups.Load()

	qname := queueOwnedBy(t, c, 0, "double-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors")

	const n = 10
	publishReplicated(t, c, qname, n)

	denyDir(t, dir, 0)
	moved, err := c.Kill(0)
	if err != nil {
		t.Fatalf("first Kill: %v", err)
	}
	second := -1
	for _, q := range moved {
		if q.Name == qname {
			second = q.Node
		}
	}
	if second < 0 {
		t.Fatalf("queue %s not reassigned (moved=%v)", qname, moved)
	}
	// The promoted master re-mirrors onto the remaining survivor — a
	// catch-up resync of the full history, since the replica starts
	// empty while the promoted log already holds every record.
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors after first failover")
	if got := catchups.Load() - cuBase; got < 1 {
		t.Fatalf("mirror_catchups delta = %d, want >= 1 (survivor never resynced)", got)
	}

	denyDir(t, dir, second)
	moved, err = c.Kill(second)
	if err != nil {
		t.Fatalf("second Kill: %v", err)
	}
	last := -1
	for _, q := range moved {
		if q.Name == qname {
			last = q.Node
		}
	}
	if last < 0 || last == second || last == 0 {
		t.Fatalf("queue %s not reassigned to the last survivor (moved=%v)", qname, moved)
	}
	if got := promoted.Load() - promBase; got != 2 {
		t.Fatalf("promotions delta = %d, want 2 (one per kill)", got)
	}
	drainAll(t, c, last, qname, n)
}

// TestRestartRejoinsAsMirror: a killed replicated master restarted into
// the cluster re-enters the queue's replica set as a catching-up mirror
// (the replication manager reconciles the ring change), restoring the
// declared factor without disturbing the promoted master.
func TestRestartRejoinsAsMirror(t *testing.T) {
	dir := t.TempDir()
	c := startReplicated(t, dir)

	insync := telemetry.Default.Gauge("cluster.insync_mirrors")
	insyncBase := insync.Load()

	qname := queueOwnedBy(t, c, 2, "rejoin-mirror-q")
	conn, err := amqp.Dial("amqp://" + c.AddrFor(qname))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(qname, true, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors")

	const n = 6
	publishReplicated(t, c, qname, n)
	if _, err := c.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Promotion moved the queue; the survivors re-sync a mirror.
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors after failover")

	if err := c.Restart(2); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// With all three nodes back, reconciliation may re-home the mirror
	// onto the restarted node; either way the queue must stay fully
	// replicated and its history drainable from the current master.
	waitGauge(t, insync, insyncBase, 1, "insync_mirrors after rejoin")
	drainAll(t, c, c.OwnerOf(qname), qname, n)
}

// writeGate holds the writes of the federation connections dialed to one
// address: once armed, they pass budget bytes between them, and then every
// write waits until the gate is released.
type writeGate struct {
	mu       sync.Mutex
	addr     string
	armed    bool
	budget   int
	released chan struct{}
	once     sync.Once
}

func newWriteGate() *writeGate { return &writeGate{released: make(chan struct{})} }

func (g *writeGate) dial(network, addr string) (net.Conn, error) {
	nc, err := net.Dial(network, addr)
	g.mu.Lock()
	gated := addr == g.addr
	g.mu.Unlock()
	if err != nil || !gated {
		return nc, err
	}
	return &gatedConn{Conn: nc, g: g}, nil
}

// watch gates the connections dialed to addr from now on.
func (g *writeGate) watch(addr string) {
	g.mu.Lock()
	g.addr = addr
	g.mu.Unlock()
}

func (g *writeGate) arm(budget int) {
	g.mu.Lock()
	g.armed, g.budget = true, budget
	g.mu.Unlock()
}

func (g *writeGate) release() { g.once.Do(func() { close(g.released) }) }

// take returns how many of n bytes may be written before the gate holds.
func (g *writeGate) take(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.armed {
		return n
	}
	n = min(n, g.budget)
	g.budget -= n
	return n
}

type gatedConn struct {
	net.Conn
	g *writeGate
}

func (c *gatedConn) Write(p []byte) (int, error) {
	n := c.g.take(len(p))
	if n == len(p) {
		return c.Conn.Write(p)
	}
	w, err := c.Conn.Write(p[:n])
	if err != nil {
		return w, err
	}
	<-c.g.released
	rest, err := c.Conn.Write(p[n:])
	return w + rest, err
}

// TestKillDuringCatchupKeepsHistory kills a replicated queue's master
// while its only mirror is still catching up after a restart: the link to
// the mirror stalls after 32 KiB, so the replica holds part of the
// master's 2,000 confirmed messages. A half-scanned replica must not be
// promoted; the queue relocates onto a clean directory instead, and every
// confirmed message survives. The restarted mirror must also be caught up
// on a live link, not evicted by a ship on the link its restart killed.
func TestKillDuringCatchupKeepsHistory(t *testing.T) {
	gate := newWriteGate()
	c, err := StartWithOptions(3, Options{Federation: true, ReplicationFactor: 2, FedDial: gate.dial}, func(int) broker.Config {
		return broker.Config{DataDir: t.TempDir(), Durability: seglog.Options{Fsync: seglog.FsyncNever}}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	t.Cleanup(gate.release) // runs first: a held write would hang Close

	qname := queueOwnedBy(t, c, 0, "half-q")
	mirror := -1
	for _, n := range c.Directory().Ring().Owners(qname, 3) {
		if n != 0 {
			mirror = n
			break
		}
	}
	gate.watch(c.Addrs()[mirror])
	const n = 2000
	publishReplicated(t, c, qname, n)

	if _, err := c.Kill(mirror); err != nil {
		t.Fatalf("Kill(%d): %v", mirror, err)
	}
	gate.arm(32 << 10)
	if err := c.Restart(mirror); err != nil {
		t.Fatalf("Restart(%d): %v", mirror, err)
	}
	// The restarted mirror applies offsets until the gate holds its link.
	st := c.storeOf(mirror)
	deadline := time.Now().Add(5 * time.Second)
	applied, still := uint64(0), 0
	for applied == 0 || still < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("mirror replica at offset %d after 5 s (still for %d polls): the catch-up never ran, or never stalled", applied, still)
		}
		time.Sleep(10 * time.Millisecond)
		if now := st.nextOffset("/", qname); now != applied {
			applied, still = now, 0
		} else {
			still++
		}
	}
	if applied >= n {
		t.Fatalf("the gate let the whole catch-up through (%d offsets)", applied)
	}

	// Kill's link teardown waits behind the held write; let it go shortly.
	release := time.AfterFunc(300*time.Millisecond, gate.release)
	defer release.Stop()
	moved, err := c.Kill(0)
	if err != nil {
		t.Fatalf("Kill(0): %v", err)
	}
	master := -1
	for _, q := range moved {
		if q.Name == qname {
			master = q.Node
		}
	}
	if master < 0 {
		t.Fatalf("queue %s not reassigned by Kill (moved=%v)", qname, moved)
	}
	drainAll(t, c, master, qname, n)
}

// flakyMaster accepts link connections: the first dropFirst connections
// complete the handshake, swallow one basic.publish, and drop the
// connection without acking — a mid-forward link failure. Later
// connections ack everything (fakeMaster).
func flakyMaster(ln net.Listener, dropFirst int) {
	for i := 0; ; i++ {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if i >= dropFirst {
			go fakeMaster(nc)
			continue
		}
		go func(nc net.Conn) {
			defer nc.Close()
			fr := fakeHandshake(nc)
			if fr == nil {
				return
			}
			for {
				f, err := fr.ReadFrame()
				if err != nil {
					return
				}
				if isPublish(f) {
					return // swallow the publish, reset the link
				}
			}
		}(nc)
	}
}

// confirmRecorder collects ClusterConfirm verdicts by seq.
type confirmRecorder struct {
	ch chan bool
}

func (r *confirmRecorder) ClusterConfirm(seq uint64, ok bool) { r.ch <- ok }

// linkFlapForward runs one confirm-bridged forward against a flaky
// master that drops the first dropFirst link connections, and returns
// the verdict the origin channel received.
func linkFlapForward(t *testing.T, dropFirst int) bool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go flakyMaster(ln, dropFirst)

	hub := newFedHub(0, nil, nil)
	defer hub.closeAll()
	l, err := hub.link(ln.Addr().String(), "/")
	if err != nil {
		t.Fatal(err)
	}

	msg := broker.NewMessage("", "flap-q", wire.Properties{}, 64)
	msg.AppendBody(make([]byte, 64))
	defer msg.Release()

	rec := &confirmRecorder{ch: make(chan bool, 1)}
	if err := l.forward("", "flap-q", msg, rec, 7); err != nil {
		t.Fatalf("forward: %v", err)
	}
	select {
	case ok := <-rec.ch:
		return ok
	case <-time.After(10 * time.Second):
		t.Fatal("confirm never resolved after link flap")
		return false
	}
}

// TestFedLinkRetryReplaysOnce: a link failure replays the outstanding
// forward exactly once on a fresh link. One flap resolves to an ack (the
// replay reached an acking master, counted in federation_retries); two
// flaps resolve to a nack — the forward already rode its one retry, so
// the producer's confirm machinery takes over instead of an in-process
// replay storm.
func TestFedLinkRetryReplaysOnce(t *testing.T) {
	retries := telemetry.Default.Counter("cluster.federation_retries")
	base := retries.Load()
	if ok := linkFlapForward(t, 1); !ok {
		t.Fatal("single flap: replayed forward should resolve to an ack")
	}
	if got := retries.Load() - base; got != 1 {
		t.Fatalf("federation_retries delta = %d, want 1", got)
	}
	if ok := linkFlapForward(t, 2); ok {
		t.Fatal("double flap: a forward that already rode its retry must nack")
	}
}

// TestMirrorStoreRefusesFramesAfterPromotion: mirror frames of a dead
// master that were still buffered on its link when the replica was
// promoted must not reopen the replica (a second log over the directory
// the promoted queue now lives in made the declare fail with "file
// exists" and left the queue's new master without it) or wipe it.
func TestMirrorStoreRefusesFramesAfterPromotion(t *testing.T) {
	st := newMirrorStore(t.TempDir(), seglog.Options{})
	msg := broker.NewMessage("", "late-q", wire.Properties{}, 16)
	msg.AppendBody(make([]byte, 16))
	defer msg.Release()
	if err := st.applyData("/", "late-q", 0, msg); err != nil {
		t.Fatal(err)
	}
	if err := st.promote("/", "late-q"); err != nil {
		t.Fatal(err)
	}
	if err := st.applyData("/", "late-q", 1, msg); err == nil {
		t.Error("data frame applied to a promoted replica")
	}
	if err := st.applyAcks("/", "late-q", make([]byte, 8)); err == nil {
		t.Error("ack frame applied to a promoted replica")
	}
	if err := st.reset("/", "late-q"); err == nil {
		t.Error("reset wiped a promoted replica")
	}
	dir := st.repDir("/", "late-q")
	if _, err := os.Stat(filepath.Join(dir, broker.MirrorMarker)); !os.IsNotExist(err) {
		t.Errorf("MIRROR marker back on the promoted replica (stat err %v)", err)
	}
	// The broker's declare still recovers the promoted log.
	l, rec, err := seglog.Open(dir, seglog.Options{})
	if err != nil {
		t.Fatalf("promoted replica does not open: %v", err)
	}
	defer l.Close()
	if len(rec.Unacked) != 1 {
		t.Fatalf("promoted replica holds %d records, want 1", len(rec.Unacked))
	}
	// A node crash forgets the promotion: the restarted node may mirror
	// the queue again.
	st.crash()
	if err := st.reset("/", "late-q"); err != nil {
		t.Fatalf("reset after crash: %v", err)
	}
}
