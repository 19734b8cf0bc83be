package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// Replication: per-queue synchronous mirrors. With Options.ReplicationFactor
// R >= 2, every durable queue gets R-1 standby mirrors on the distinct ring
// nodes that follow its master in the placement walk. The master streams
// three kinds of frames to each mirror over the ordinary confirm-mode
// federation links (reserved "!mirror.*" exchanges, see broker.ClusterHook):
// data ships (one record at its master offset), settle ships (a batch of
// settled offsets; a mirror that misses one merely redelivers) and reset
// ships (wipe the replica before a catch-up). Each queue's protocol is the
// pure core mirrorSet (mirrorset.go); replQueue carries out its work.
//
// Scope: replication covers default-exchange publishes to durable queues —
// the same data plane the federation layer forwards. Named-exchange
// publishes and transient queues stay node-local (unmirrored), exactly as
// their durability contract implies. Requeues are not streamed: a requeue
// does not change log state, so mirrors converge on the master's
// (ready + unacked) record set, not its in-memory delivery order.

// replLagWindow bounds how long a mirror may owe a withheld producer
// confirm before the lag clock releases what it owes.
const replLagWindow = 500 * time.Millisecond

var (
	promotions      = telemetry.Default.Counter("cluster.promotions")
	mirrorCatchups  = telemetry.Default.Counter("cluster.mirror_catchups")
	mirrorLag       = telemetry.Default.Gauge("cluster.mirror_lag")
	insyncMirrors   = telemetry.Default.Gauge("cluster.insync_mirrors")
	underReplicated = telemetry.Default.Gauge("cluster.underreplicated_queues")
	mirrorEvictions = telemetry.Default.Counter("cluster.mirror_evictions")
	fedRetries      = telemetry.Default.Counter("cluster.federation_retries")
)

// mirrorKey builds a data ship's routing key: the record's master offset
// as a 16-hex-digit prefix, then the queue name.
func mirrorKey(off uint64, queue string) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = "0123456789abcdef"[off&0xf]
		off >>= 4
	}
	return string(b[:]) + queue
}

// parseMirrorKey splits a data ship's routing key back into offset and
// queue name.
func parseMirrorKey(key string) (uint64, string, error) {
	if len(key) < 16 {
		return 0, "", fmt.Errorf("cluster: short mirror key %q", key)
	}
	off, err := strconv.ParseUint(key[:16], 16, 64)
	if err != nil {
		return 0, "", fmt.Errorf("cluster: bad mirror key %q: %w", key, err)
	}
	return off, key[16:], nil
}

// confirmWaiter adapts a channel to broker.ConfirmTarget for one-shot
// synchronous ships (the pre-catch-up reset).
type confirmWaiter chan bool

// ClusterConfirm never blocks: a forward is resolved exactly once.
func (c confirmWaiter) ClusterConfirm(_ uint64, ok bool) { c <- ok }

// ---------------------------------------------------------------------------
// Mirror side: the standby replica store.

// mirrorStore holds one node's standby replicas: per mirrored queue, a
// segment log under the node's own data directory (same escaped
// vhost/queue layout a mastered queue uses) plus the MIRROR marker that
// keeps Server.recoverDurable from replaying it as a mastered queue.
// Promotion closes the log and removes the marker; the very next declare
// on this node then recovers the replica as an ordinary durable queue.
type mirrorStore struct {
	dataDir string
	opts    seglog.Options

	mu   sync.Mutex
	reps map[string]*mirrorRep // key: qkey(vhost, queue)
	// refused marks the queues this node took over as master. Frames of
	// the dead master still in a link's buffers would otherwise open a
	// second log over (or wipe) the directory the queue now lives in.
	refused map[string]bool
}

// mirrorRep is one standby replica. Data ships can arrive out of offset
// order (live ships and catch-up scan interleave on the link), so the rep
// tracks a contiguous applied frontier plus the out-of-order set above it
// for duplicate suppression, and stashes acks that outrun their data.
type mirrorRep struct {
	mu      sync.Mutex
	log     *seglog.Log
	next    uint64          // contiguous applied frontier
	ooo     map[uint64]bool // applied offsets >= next
	pendAck map[uint64]bool // acks awaiting their data record
}

func newMirrorStore(dataDir string, opts seglog.Options) *mirrorStore {
	// Explicit-offset appends give replica segments overlapping offset
	// spans, which makes head compaction unsound — standby logs retain
	// everything until promotion hands them to the broker's own policy.
	opts.RetainAll = true
	return &mirrorStore{dataDir: dataDir, opts: opts, reps: make(map[string]*mirrorRep), refused: make(map[string]bool)}
}

func (st *mirrorStore) repDir(vhost, queue string) string {
	return filepath.Join(st.dataDir, url.QueryEscape(vhost), url.QueryEscape(queue))
}

// ensure returns the open replica for (vhost, queue), creating directory,
// marker, and log on first use.
func (st *mirrorStore) ensure(vhost, queue string) (*mirrorRep, error) {
	k := qkey(vhost, queue)
	st.mu.Lock()
	defer st.mu.Unlock()
	if rep, ok := st.reps[k]; ok {
		return rep, nil
	}
	if st.refused[k] {
		return nil, fmt.Errorf("cluster: mirror frame for %q, which this node has taken over as master", queue)
	}
	dir := st.repDir(vhost, queue)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: mirror dir %q: %w", queue, err)
	}
	// Marker before log: a crash between the two leaves a marked (skipped)
	// directory, never a half-replica that recovery would master.
	if err := os.WriteFile(filepath.Join(dir, broker.MirrorMarker), nil, 0o644); err != nil {
		return nil, fmt.Errorf("cluster: mirror marker %q: %w", queue, err)
	}
	l, _, err := seglog.Open(dir, st.opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: mirror log %q: %w", queue, err)
	}
	rep := &mirrorRep{
		log:     l,
		next:    l.NextOffset(),
		ooo:     make(map[uint64]bool),
		pendAck: make(map[uint64]bool),
	}
	st.reps[k] = rep
	return rep, nil
}

// applyData applies one data ship: append the record at its master offset
// (duplicates from the catch-up/live overlap are dropped by offset) and
// drain any ack that arrived ahead of it.
func (st *mirrorStore) applyData(vhost, queue string, off uint64, m *broker.Message) error {
	rep, err := st.ensure(vhost, queue)
	if err != nil {
		return err
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if off < rep.next || rep.ooo[off] {
		return nil // duplicate ship
	}
	// Reproduce the master's append: a default-exchange record keyed by
	// the queue (the wire envelope carried the mirror exchange instead).
	if err := rep.log.AppendAt(off, "", queue, &m.Props, m.Body); err != nil {
		return err
	}
	rep.ooo[off] = true
	for rep.ooo[rep.next] {
		delete(rep.ooo, rep.next)
		rep.next++
	}
	if rep.pendAck[off] {
		delete(rep.pendAck, off)
		return rep.log.Ack(off)
	}
	return nil
}

// applyAcks applies a settle ship: body is N big-endian u64 offsets. Acks
// for records not yet applied are stashed until the data ship lands;
// duplicate acks are harmless (the log tolerates them, recovery no-ops).
func (st *mirrorStore) applyAcks(vhost, queue string, body []byte) error {
	rep, err := st.ensure(vhost, queue)
	if err != nil {
		return err
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	for len(body) >= 8 {
		off := binary.BigEndian.Uint64(body[:8])
		body = body[8:]
		if off < rep.next || rep.ooo[off] {
			if err := rep.log.Ack(off); err != nil {
				return err
			}
		} else {
			rep.pendAck[off] = true
		}
	}
	return nil
}

// reset wipes the standby replica — the master sends it before every
// catch-up so the scan lands on a clean slate.
func (st *mirrorStore) reset(vhost, queue string) error { return st.wipe(vhost, queue, false) }

// wipe takes the replica out of the store and removes its directory;
// refuse as for detach clears the way for a queue relocated here.
func (st *mirrorStore) wipe(vhost, queue string, refuse bool) error {
	rep, err := st.detach(vhost, queue, refuse)
	if err != nil {
		return err
	}
	_ = rep.close() // the replica goes whole: a failed close loses nothing
	return os.RemoveAll(st.repDir(vhost, queue))
}

// promote hands the standby replica to the broker: the log is closed
// cleanly (flush + fsync) and the MIRROR marker removed, so the next
// declare on this node recovers it as an ordinary durable queue. No data
// moves — promotion is a rename-free ownership flip on local disk.
func (st *mirrorStore) promote(vhost, queue string) error {
	rep, _ := st.detach(vhost, queue, true)
	if err := rep.close(); err != nil {
		return fmt.Errorf("cluster: mirror promote %q: %w", queue, err)
	}
	err := os.Remove(filepath.Join(st.repDir(vhost, queue), broker.MirrorMarker))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: mirror promote %q: %w", queue, err)
	}
	return nil
}

// detach takes the queue's open replica, if any, out of the store. refuse
// marks the queue as refused; without it, detaching one so marked fails.
func (st *mirrorStore) detach(vhost, queue string, refuse bool) (*mirrorRep, error) {
	k := qkey(vhost, queue)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.refused[k] && !refuse {
		return nil, fmt.Errorf("cluster: mirror reset for %q, which this node has taken over as master", queue)
	}
	rep := st.reps[k]
	delete(st.reps, k)
	st.refused[k] = st.refused[k] || refuse
	return rep, nil
}

// close closes a detached replica's log; a nil replica has none.
func (rep *mirrorRep) close() error {
	if rep == nil {
		return nil
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.log.Close()
}

// nextOffset reports how far the replica has applied (0 when this node
// holds no open replica of the queue) — the promotion chooser's
// advancement measure.
func (st *mirrorStore) nextOffset(vhost, queue string) uint64 {
	st.mu.Lock()
	rep := st.reps[qkey(vhost, queue)]
	st.mu.Unlock()
	if rep == nil {
		return 0
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.log.NextOffset()
}

// crash SIGKILLs the store with its node: every replica log is crashed
// (unflushed bytes die) and the in-memory state dropped. A later restart
// starts empty; masters re-establish mirrors with a reset + catch-up.
func (st *mirrorStore) crash() {
	st.mu.Lock()
	reps := st.reps
	st.reps = make(map[string]*mirrorRep)
	st.refused = make(map[string]bool)
	st.mu.Unlock()
	for _, rep := range reps {
		rep.mu.Lock()
		rep.log.Crash()
		rep.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Master side: per-queue replication state.

var errMirrorEvicted = errors.New("cluster: mirror evicted")

// replQueue is one queue's replication on its master: the core, driven
// under mu, and the one path its ships take.
type replQueue struct {
	rm    *replManager
	vhost string
	name  string

	mu  sync.Mutex
	set mirrorSet
	lag *time.Timer // the lag clock: re-armed while the core withholds confirms
}

// workBuf is stack room for one call's work: a ship per mirror at most.
type workBuf struct {
	ships    [4]replShip
	confirms [4]producerConfirm
}

func (b *workBuf) work() mirrorWork { return mirrorWork{ships: b.ships[:0], confirms: b.confirms[:0]} }

// replManager owns one node's master-side replication state across all
// the queues it masters.
type replManager struct {
	c      *Cluster
	node   int
	factor int
	hub    *fedHub

	mu     sync.Mutex
	queues map[string]*replQueue
}

// get returns a replicated queue this node masters, or nil.
func (rm *replManager) get(vhost, queue string) *replQueue {
	if rm == nil {
		return nil
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.queues[qkey(vhost, queue)]
}

// all snapshots the queues this node masters.
func (rm *replManager) all() []*replQueue {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	qs := make([]*replQueue, 0, len(rm.queues))
	for _, rq := range rm.queues {
		qs = append(qs, rq)
	}
	return qs
}

// queueRegistered is the replication entry point: a durable queue this
// node masters gets a replQueue and mirror establishment kicks off.
// Idempotent — redeclares and recovery re-registrations re-run the
// (also idempotent) mirror reconcile.
func (rm *replManager) queueRegistered(vhost, queue string, durable bool) {
	if !durable || rm.factor < 2 || rm.c.dir.Owner(vhost, queue) != rm.node {
		return
	}
	k := qkey(vhost, queue)
	rm.mu.Lock()
	rq := rm.queues[k]
	if rq == nil {
		rq = &replQueue{rm: rm, vhost: vhost, name: queue, set: newMirrorSet(rm.factor - 1)}
		rq.lag = time.AfterFunc(replLagWindow/2, rq.onLagTimer)
		rm.queues[k] = rq
		underReplicated.Add(1) // no mirror yet
	}
	rm.mu.Unlock()
	rm.ensureMirrors(rq)
}

// desiredMirrors walks the ring clockwise from the queue's placement
// point, collecting up to factor-1 live nodes other than this master.
func (rm *replManager) desiredMirrors(queue string) []int {
	owners := slices.DeleteFunc(rm.c.dir.Ring().Owners(queue, rm.factor+1), func(n int) bool { return n == rm.node })
	return owners[:min(len(owners), rm.factor-1)]
}

// ensureMirrors starts establishment for every desired mirror the queue
// does not have. Safe to call repeatedly (reconcile on topology changes).
func (rm *replManager) ensureMirrors(rq *replQueue) {
	for _, node := range rm.desiredMirrors(rq.name) {
		rq.mu.Lock()
		join := rq.set.join(node)
		rq.mu.Unlock()
		if join != 0 {
			go rm.establishMirror(rq, node, join)
		}
	}
}

// establishMirror catches one joined mirror up and tells the core its scan
// is done; one that could not be caught up leaves the set, and the next
// reconcile retries.
func (rm *replManager) establishMirror(rq *replQueue, node int, join uint64) {
	err := rm.catchUp(rq, node, join)
	var b workBuf
	w := b.work()
	rq.mu.Lock()
	if err != nil {
		w = rq.set.leave(w, 0, join)
	} else {
		w = rq.set.scanDone(w, join)
	}
	rq.mu.Unlock()
	rq.carry(w, nil)
}

// catchUp wipes a joined mirror's replica, makes the mirror ready at the
// master log's frontier and ships the history below it across.
func (rm *replManager) catchUp(rq *replQueue, node int, join uint64) error {
	var q *broker.Queue
	if self := rm.c.nodeOrNil(rm.node); self != nil { // nil while the cluster starts
		q, _ = self.VHost(rq.vhost).Queue(rq.name)
	}
	if q == nil || q.Log() == nil {
		return fmt.Errorf("cluster: no durable queue %q to mirror", rq.name)
	}
	// Wipe the replica before the mirror is ready, so no live ship can land
	// before the reset and be erased after its confirm.
	reset := broker.NewMessage(broker.MirrorResetExchange, rq.name, wire.Properties{}, 0)
	wiped := make(confirmWaiter, 1)
	rq.send(node, broker.MirrorResetExchange, rq.name, reset, wiped, 0)
	reset.Release()
	ok := false
	select {
	case ok = <-wiped:
	case <-time.After(fedRPCTimeout):
	}
	if !ok {
		return fmt.Errorf("cluster: mirror reset of %q on node %d failed", rq.name, node)
	}
	// Live ships and the scan overlap at the frontier (a publish between
	// its append and its live ship lands in both); the mirror dedupes.
	rq.mu.Lock()
	frontier := q.Log().NextOffset()
	ok = rq.set.ready(join, frontier)
	rq.mu.Unlock()
	if !ok {
		return errMirrorEvicted
	}
	err := q.Log().Scan(
		func(rec *seglog.Record) error {
			return rq.catchup(join, rec.Offset, false, func() *broker.Message {
				msg := broker.NewMessage(rec.Exchange, rec.Key, rec.Props, len(rec.Body))
				msg.AppendBody(rec.Body)
				return msg
			})
		},
		func(off uint64) error {
			return rq.catchup(join, off, true, func() *broker.Message { return settleFrame(rq.name, []uint64{off}) })
		},
	)
	if err == nil && frontier > 0 {
		mirrorCatchups.Inc()
	}
	return err
}

// catchup sends the scan's ship of off, if the core issues one, in the
// frame frame builds.
func (rq *replQueue) catchup(join, off uint64, settle bool, frame func() *broker.Message) error {
	var b workBuf
	rq.mu.Lock()
	w, ok := rq.set.catchup(b.work(), join, off, settle)
	rq.mu.Unlock()
	if !ok {
		return errMirrorEvicted
	}
	if len(w.ships) > 0 {
		msg := frame()
		rq.carry(w, msg)
		msg.Release()
	}
	return nil
}

// settleFrame is a settle ship's frame: the offsets as big-endian u64s.
func settleFrame(queue string, offs []uint64) *broker.Message {
	msg := broker.NewMessage(broker.MirrorAckExchange, queue, wire.Properties{}, 8*len(offs))
	var b [8]byte
	for _, o := range offs {
		binary.BigEndian.PutUint64(b[:], o)
		msg.AppendBody(b[:])
	}
	return msg
}

// carry does a call's work once rq.mu is released: census to the gauges,
// ships down the ship path in the frame msg, confirms to their producers.
func (rq *replQueue) carry(w mirrorWork, msg *broker.Message) {
	mirrorLag.Add(int64(w.lag))
	insyncMirrors.Add(int64(w.insync))
	underReplicated.Add(int64(w.under))
	mirrorEvictions.Add(int64(w.evicted))
	for _, sh := range w.ships {
		exchange, key := broker.MirrorAckExchange, rq.name
		if !sh.settle {
			exchange, key = broker.MirrorDataExchange, mirrorKey(sh.off, rq.name)
		}
		rq.send(sh.node, exchange, key, msg, rq, sh.id)
	}
	for _, c := range w.confirms {
		c.target.ClusterConfirm(c.seq, true)
	}
}

// send is the one path a frame to a mirror takes. It resolves the link at
// send time, so no frame rides a link that died since the last, and nacks
// a frame no link took.
func (rq *replQueue) send(node int, exchange, key string, msg *broker.Message, target broker.ConfirmTarget, id uint64) {
	sent := false
	if addr := rq.rm.c.dir.Addr(node); addr != "" { // none while the node starts
		if l, err := rq.rm.hub.link(addr, rq.vhost); err == nil {
			sent = l.forward(exchange, key, msg, target, id) == nil
		}
	}
	if !sent {
		target.ClusterConfirm(id, false)
	}
}

// ClusterConfirm takes a mirror's verdict on the ship the core numbered id.
func (rq *replQueue) ClusterConfirm(id uint64, ok bool) {
	var b workBuf
	rq.mu.Lock()
	w := rq.set.verdict(b.work(), id, ok)
	rq.mu.Unlock()
	rq.carry(w, nil)
}

// onLagTimer ticks the lag clock, so a wedged mirror cannot stall
// producers for longer than the lag window.
func (rq *replQueue) onLagTimer() {
	var b workBuf
	rq.mu.Lock()
	w := rq.set.tick(b.work(), time.Now())
	if w.arm {
		rq.lag.Reset(replLagWindow / 2)
	}
	rq.mu.Unlock()
	rq.carry(w, nil)
}

// replicated answers the broker's per-publish fast path. A replicated
// queue's publishes go through replicateAppend even with no mirror ready,
// so a mirror made ready between this answer and the append still gets
// the record, by scan or by live ship.
func (rm *replManager) replicated(vhost, queue string) bool {
	return rm.get(vhost, queue) != nil
}

// replicateAppend ships one locally appended publish to the mirrors. It
// always resolves target (the ClusterHook contract): now when no mirror
// gates, else through the mirrors' verdicts or their eviction.
func (rm *replManager) replicateAppend(vhost, queue string, off uint64, msg *broker.Message, target broker.ConfirmTarget, seq uint64) {
	rq := rm.get(vhost, queue)
	if rq == nil {
		if target != nil {
			target.ClusterConfirm(seq, true)
		}
		return
	}
	var b workBuf
	rq.mu.Lock()
	w := rq.set.append(b.work(), off, producerConfirm{target: target, seq: seq}, time.Now())
	if w.arm {
		rq.lag.Reset(replLagWindow / 2)
	}
	rq.mu.Unlock()
	rq.carry(w, msg)
}

// replicateSettle streams committed settlements (single offset or batch)
// to the mirrors: fire-and-forget for the consumer, confirm-tracked on
// the link.
func (rm *replManager) replicateSettle(vhost, queue string, off uint64, offs []uint64) {
	rq := rm.get(vhost, queue)
	if rq == nil || (offs != nil && len(offs) == 0) {
		return
	}
	var b workBuf
	rq.mu.Lock()
	w := rq.set.settle(b.work())
	rq.mu.Unlock()
	if len(w.ships) == 0 {
		return
	}
	if offs == nil {
		offs = []uint64{off}
	}
	msg := settleFrame(queue, offs)
	rq.carry(w, msg)
	msg.Release()
}

// nodeDown drops a dead node from every queue's mirror set, releasing any
// confirms it owed.
func (rm *replManager) nodeDown(node int) {
	for _, rq := range rm.all() {
		var b workBuf
		rq.mu.Lock()
		w := rq.set.leave(b.work(), node, 0)
		rq.mu.Unlock()
		rq.carry(w, nil)
	}
}

// choosePromotion picks the dead master's successor for one of its
// queues: the live promotable mirror whose replica has applied furthest.
// ok=false (none, or no replicated queue) relocates the queue instead.
func (rm *replManager) choosePromotion(q QueueInfo) (int, bool) {
	rq := rm.get(q.VHost, q.Name)
	if rq == nil {
		return 0, false
	}
	rq.mu.Lock()
	nodes := rq.set.promotable()
	rq.mu.Unlock()
	best, bestOff := -1, uint64(0)
	for _, node := range nodes {
		st := rm.c.storeOf(node)
		if st == nil || !rm.c.dir.Ring().Has(node) {
			continue // the mirror died too
		}
		if off := st.nextOffset(q.VHost, q.Name); best < 0 || off > bestOff {
			best, bestOff = node, off
		}
	}
	return best, best >= 0
}

// InSyncMirrors reports how many mirrors of the queue a kill of its
// master could promote (0 for an unreplicated queue).
func (c *Cluster) InSyncMirrors(vhost, queue string) int {
	rq := c.repls[c.dir.Owner(vhost, queue)].get(vhost, queue) // repls is fixed at start
	if rq == nil {
		return 0
	}
	rq.mu.Lock()
	defer rq.mu.Unlock()
	return rq.set.insync
}

// reconcileAll re-runs mirror placement for every mastered queue — the
// rebalance-on-join audit's replication half: a node re-entering the ring
// is re-established (reset + catch-up) wherever placement wants it.
func (rm *replManager) reconcileAll() {
	for _, rq := range rm.all() {
		rm.ensureMirrors(rq)
	}
}

// reset drops all master-side replication state (node restart: the
// in-process manager outlived its crashed broker). Withheld confirms are
// dropped, not fired — their producer channels died with the node.
func (rm *replManager) reset() {
	rm.mu.Lock()
	qs := rm.queues
	rm.queues = make(map[string]*replQueue)
	rm.mu.Unlock()
	for _, rq := range qs {
		var b workBuf
		rq.mu.Lock()
		w := rq.set.drop(b.work())
		rq.mu.Unlock()
		rq.carry(w, nil)
	}
}
