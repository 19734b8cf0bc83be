package cluster

import (
	"encoding/binary"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
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
//
//   - data ships: one per locally appended publish, carrying the record and
//     its master-assigned segment-log offset (16-hex-digit routing-key
//     prefix). The producer's confirm is withheld until every in-sync
//     mirror has confirmed its append.
//   - settle ships: batches of ack offsets, fire-and-forget — a mirror
//     that misses acks merely redelivers, which at-least-once permits.
//   - reset ships: wipe the standby replica before a fresh catch-up.
//
// A mirror joins catching-up: the master snapshots its log frontier, scans
// everything below it to the mirror while live ships flow concurrently
// above it (the mirror dedupes the overlap by offset), and marks the mirror
// in-sync once the scan and every outstanding ship have drained. In-sync
// mirrors gate confirms; a mirror that stays lagged past replLagWindow is
// evicted from the in-sync set so confirms always resolve. Kill promotes
// the most-advanced in-sync mirror — its standby log is already on the new
// master's disk, so failover performs no segment-log relocation.
//
// Scope: replication covers default-exchange publishes to durable queues —
// the same data plane the federation layer forwards. Named-exchange
// publishes and transient queues stay node-local (unmirrored), exactly as
// their durability contract implies. Requeues are not streamed: a requeue
// does not change log state, so mirrors converge on the master's
// (ready + unacked) record set, not its in-memory delivery order.

// replLagWindow bounds how long an in-sync mirror may sit on an
// unconfirmed data ship before it is evicted from the in-sync set (and the
// withheld producer confirms it owed are released).
const replLagWindow = 500 * time.Millisecond

var (
	promotions      = telemetry.Default.Counter("cluster.promotions")
	mirrorCatchups  = telemetry.Default.Counter("cluster.mirror_catchups")
	mirrorLag       = telemetry.Default.Gauge("cluster.mirror_lag")
	insyncMirrors   = telemetry.Default.Gauge("cluster.insync_mirrors")
	underReplicated = telemetry.Default.Gauge("cluster.underreplicated_queues")
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

func (c confirmWaiter) ClusterConfirm(seq uint64, ok bool) {
	select {
	case c <- ok:
	default:
	}
}

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
	// promoted marks the replicas handed to the broker. Mirror frames of
	// the dead master can still be sitting in a link connection's buffers
	// when promotion runs; applied afterwards they would open a second
	// log over (or, for a reset, wipe) the directory the promoted queue
	// now lives in, so they are refused instead.
	promoted map[string]bool
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
	return &mirrorStore{dataDir: dataDir, opts: opts, reps: make(map[string]*mirrorRep), promoted: make(map[string]bool)}
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
	if st.promoted[k] {
		return nil, fmt.Errorf("cluster: mirror frame for %q, which this node has been promoted to master", queue)
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
func (st *mirrorStore) reset(vhost, queue string) error {
	k := qkey(vhost, queue)
	st.mu.Lock()
	if st.promoted[k] {
		st.mu.Unlock()
		return fmt.Errorf("cluster: mirror reset for %q, which this node has been promoted to master", queue)
	}
	rep := st.reps[k]
	delete(st.reps, k)
	st.mu.Unlock()
	if rep != nil {
		rep.mu.Lock()
		rep.log.Close()
		rep.mu.Unlock()
	}
	if err := os.RemoveAll(st.repDir(vhost, queue)); err != nil {
		return fmt.Errorf("cluster: mirror reset %q: %w", queue, err)
	}
	return nil
}

// promote hands the standby replica to the broker: the log is closed
// cleanly (flush + fsync) and the MIRROR marker removed, so the next
// declare on this node recovers it as an ordinary durable queue. No data
// moves — promotion is a rename-free ownership flip on local disk.
func (st *mirrorStore) promote(vhost, queue string) error {
	k := qkey(vhost, queue)
	st.mu.Lock()
	rep := st.reps[k]
	delete(st.reps, k)
	st.promoted[k] = true
	st.mu.Unlock()
	if rep != nil {
		rep.mu.Lock()
		err := rep.log.Close()
		rep.mu.Unlock()
		if err != nil {
			return fmt.Errorf("cluster: mirror promote %q: %w", queue, err)
		}
	}
	err := os.Remove(filepath.Join(st.repDir(vhost, queue), broker.MirrorMarker))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: mirror promote %q: %w", queue, err)
	}
	return nil
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
	st.promoted = make(map[string]bool)
	st.mu.Unlock()
	for _, rep := range reps {
		rep.mu.Lock()
		rep.log.Crash()
		rep.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Master side: per-queue replication state.

const (
	mirCatchingUp = iota // scanning history; live ships flow but don't gate confirms
	mirInSync            // gates producer confirms
)

// replShip is one outstanding frame on a mirror's link: a data ship
// (confirm-gating when the mirror is in-sync) or a settle ship.
type replShip struct {
	off  uint64
	data bool
	at   time.Time
}

// replPending is one withheld producer confirm: resolved when need in-sync
// appends have confirmed, or when the owing laggards are evicted.
type replPending struct {
	target broker.ConfirmTarget
	seq    uint64
	need   int
	at     time.Time
}

// replMirror is the master's view of one mirror.
type replMirror struct {
	node        int
	state       int
	catchupDone bool
	outstanding map[uint64]replShip // shipID -> ship
	target      *mirrorShipTarget
}

// mirrorShipTarget routes a ship's link confirm back to its queue's
// replication state; the link seq it bridges is the per-queue shipID.
type mirrorShipTarget struct {
	rq   *replQueue
	node int
}

func (t *mirrorShipTarget) ClusterConfirm(shipID uint64, ok bool) {
	t.rq.shipDone(t.node, shipID, ok)
}

// replQueue is the master-side replication state of one queue.
type replQueue struct {
	rm    *replManager
	vhost string
	name  string

	mu       sync.Mutex
	mirrors  map[int]*replMirror
	joining  map[int]bool            // mirror establishment in flight
	pending  map[uint64]*replPending // master offset -> withheld confirm
	shipSeq  uint64
	insync   int
	underrep bool
	timerOn  bool
	dropped  bool
}

// replManager owns one node's master-side replication state across all
// the queues it masters.
type replManager struct {
	c      *Cluster
	node   int
	factor int
	hub    *fedHub

	mu     sync.Mutex
	queues map[string]*replQueue
	count  atomic.Int64 // len(queues): the per-publish fast-path gate
}

func newReplManager(c *Cluster, node, factor int, hub *fedHub) *replManager {
	return &replManager{c: c, node: node, factor: factor, hub: hub, queues: make(map[string]*replQueue)}
}

func (rm *replManager) get(vhost, queue string) *replQueue {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.queues[qkey(vhost, queue)]
}

// queueRegistered is the replication entry point: a durable queue this
// node masters gets a replQueue and mirror establishment kicks off.
// Idempotent — redeclares and recovery re-registrations re-run the
// (also idempotent) mirror reconcile.
func (rm *replManager) queueRegistered(vhost, queue string, durable bool) {
	if !durable || rm.factor < 2 {
		return
	}
	if rm.c.dir.Owner(vhost, queue) != rm.node {
		return
	}
	k := qkey(vhost, queue)
	rm.mu.Lock()
	rq := rm.queues[k]
	if rq == nil {
		rq = &replQueue{
			rm:      rm,
			vhost:   vhost,
			name:    queue,
			mirrors: make(map[int]*replMirror),
			joining: make(map[int]bool),
			pending: make(map[uint64]*replPending),
		}
		rm.queues[k] = rq
		rm.count.Store(int64(len(rm.queues)))
		rq.mu.Lock()
		rq.updateUnderRepLocked()
		rq.mu.Unlock()
	}
	rm.mu.Unlock()
	rm.ensureMirrors(rq)
}

// desiredMirrors walks the ring clockwise from the queue's placement
// point, collecting up to factor-1 live nodes other than this master.
func (rm *replManager) desiredMirrors(queue string) []int {
	owners := rm.c.dir.Ring().Owners(queue, rm.factor+1)
	out := make([]int, 0, rm.factor-1)
	for _, n := range owners {
		if n == rm.node || len(out) >= rm.factor-1 {
			continue
		}
		out = append(out, n)
	}
	return out
}

// ensureMirrors starts establishment for every desired mirror that is
// neither live nor already joining. Safe to call repeatedly (reconcile on
// topology changes).
func (rm *replManager) ensureMirrors(rq *replQueue) {
	for _, node := range rm.desiredMirrors(rq.name) {
		rq.mu.Lock()
		_, have := rq.mirrors[node]
		busy := have || rq.joining[node] || rq.dropped
		if !busy {
			rq.joining[node] = true
		}
		rq.mu.Unlock()
		if busy {
			continue
		}
		go rm.establishMirror(rq, node)
	}
}

// establishMirror brings one mirror from cold to in-sync: reset the
// standby replica, register the mirror (live ships start flowing),
// snapshot the master frontier, scan the history below it across the
// link, and let the in-sync transition fire once everything outstanding
// drains. Aborts (dial failure, eviction mid-scan) leave the mirror
// absent; the next reconcile retries.
func (rm *replManager) establishMirror(rq *replQueue, node int) {
	defer func() {
		rq.mu.Lock()
		delete(rq.joining, node)
		rq.mu.Unlock()
	}()
	self := rm.c.nodeOrNil(rm.node)
	if self == nil {
		return // cluster still starting; the next reconcile retries
	}
	q, ok := self.VHost(rq.vhost).Queue(rq.name)
	if !ok || q.Log() == nil {
		return
	}
	addr := rm.c.dir.Addr(node)
	if addr == "" {
		return
	}
	l, err := rm.hub.link(addr, rq.vhost)
	if err != nil {
		return
	}
	// Wipe the standby replica before registering for live ships, so no
	// live ship can land pre-reset and be erased after its confirm.
	reset := broker.NewMessage(broker.MirrorResetExchange, rq.name, wire.Properties{}, 0)
	w := make(confirmWaiter, 1)
	err = l.forward(broker.MirrorResetExchange, rq.name, reset, w, 1)
	reset.Release()
	if err != nil {
		return
	}
	select {
	case ok := <-w:
		if !ok {
			return
		}
	case <-time.After(fedRPCTimeout):
		return
	}
	m := &replMirror{node: node, state: mirCatchingUp, outstanding: make(map[uint64]replShip)}
	m.target = &mirrorShipTarget{rq: rq, node: node}
	rq.mu.Lock()
	if _, dup := rq.mirrors[node]; dup || rq.dropped {
		rq.mu.Unlock()
		return
	}
	rq.mirrors[node] = m
	// Everything below startOff is the scan's job; everything at or above
	// it arrives as live ships. The two streams overlap at the boundary
	// (a publish between the append and its live ship registration lands
	// in both) and the mirror dedupes by offset.
	startOff := q.Log().NextOffset()
	rq.mu.Unlock()
	if startOff > 0 {
		err := q.Log().Scan(
			func(rec *seglog.Record) error {
				if rec.Offset >= startOff {
					return nil
				}
				return rq.shipRecord(l, m, rec)
			},
			func(off uint64) error { return rq.shipCatchupAck(l, m, off) },
		)
		if err != nil {
			return // evicted mid-scan or link failed; ship nacks clean up
		}
	}
	rq.mu.Lock()
	if rq.mirrors[node] != m {
		rq.mu.Unlock()
		return
	}
	m.catchupDone = true
	rq.maybeInsyncLocked(m)
	rq.mu.Unlock()
	if startOff > 0 {
		mirrorCatchups.Inc()
	}
}

var errMirrorEvicted = fmt.Errorf("cluster: mirror evicted")

// shipRecord streams one scanned history record to a catching-up mirror.
func (rq *replQueue) shipRecord(l *fedLink, m *replMirror, rec *seglog.Record) error {
	msg := broker.NewMessage(rec.Exchange, rec.Key, rec.Props, len(rec.Body))
	msg.AppendBody(rec.Body)
	rq.mu.Lock()
	if rq.mirrors[m.node] != m {
		rq.mu.Unlock()
		msg.Release()
		return errMirrorEvicted
	}
	rq.shipSeq++
	id := rq.shipSeq
	m.outstanding[id] = replShip{off: rec.Offset, data: true, at: time.Now()}
	rq.mu.Unlock()
	mirrorLag.Add(1)
	err := l.forward(broker.MirrorDataExchange, mirrorKey(rec.Offset, rq.name), msg, m.target, id)
	msg.Release()
	if err != nil {
		// The link never took the ship; resolve it ourselves.
		rq.shipDone(m.node, id, false)
	}
	return err
}

// shipCatchupAck streams one scanned settle to a catching-up mirror.
func (rq *replQueue) shipCatchupAck(l *fedLink, m *replMirror, off uint64) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], off)
	msg := broker.NewMessage(broker.MirrorAckExchange, rq.name, wire.Properties{}, 8)
	msg.AppendBody(b[:])
	rq.mu.Lock()
	if rq.mirrors[m.node] != m {
		rq.mu.Unlock()
		msg.Release()
		return errMirrorEvicted
	}
	rq.shipSeq++
	id := rq.shipSeq
	m.outstanding[id] = replShip{at: time.Now()}
	rq.mu.Unlock()
	mirrorLag.Add(1)
	err := l.forward(broker.MirrorAckExchange, rq.name, msg, m.target, id)
	msg.Release()
	if err != nil {
		rq.shipDone(m.node, id, false)
	}
	return err
}

// linkTo resolves a mirror node's live federation link.
func (rm *replManager) linkTo(node int, vhost string) (*fedLink, error) {
	addr := rm.c.dir.Addr(node)
	if addr == "" {
		return nil, fmt.Errorf("cluster: mirror node %d has no address", node)
	}
	return rm.hub.link(addr, vhost)
}

// replicated answers the broker's per-publish fast path: does this queue
// have live mirrors that must gate its confirms?
func (rm *replManager) replicated(vhost, queue string) bool {
	if rm == nil || rm.count.Load() == 0 {
		return false
	}
	rq := rm.get(vhost, queue)
	if rq == nil {
		return false
	}
	rq.mu.Lock()
	n := len(rq.mirrors)
	rq.mu.Unlock()
	return n > 0
}

// replicateAppend ships one locally appended publish to every mirror and
// withholds the producer's confirm until the in-sync set has appended.
// Always eventually resolves target (the ClusterHook contract): directly
// when no in-sync mirror exists, via shipDone when they confirm, via
// eviction when they lag or die.
func (rm *replManager) replicateAppend(vhost, queue string, off uint64, msg *broker.Message, target broker.ConfirmTarget, seq uint64) {
	rq := rm.get(vhost, queue)
	if rq == nil {
		if target != nil {
			target.ClusterConfirm(seq, true)
		}
		return
	}
	type shipOut struct {
		node int
		id   uint64
		t    *mirrorShipTarget
	}
	ships := make([]shipOut, 0, 2)
	now := time.Now()
	rq.mu.Lock()
	need := 0
	for node, m := range rq.mirrors {
		rq.shipSeq++
		m.outstanding[rq.shipSeq] = replShip{off: off, data: true, at: now}
		if m.state == mirInSync {
			need++
		}
		ships = append(ships, shipOut{node: node, id: rq.shipSeq, t: m.target})
	}
	if need > 0 && target != nil {
		rq.pending[off] = &replPending{target: target, seq: seq, need: need, at: now}
		rq.armTimerLocked()
		target = nil // resolution deferred to shipDone / eviction
	}
	rq.mu.Unlock()
	mirrorLag.Add(int64(len(ships)))
	if len(ships) > 0 {
		key := mirrorKey(off, queue)
		for _, sh := range ships {
			l, err := rm.linkTo(sh.node, vhost)
			if err != nil {
				rq.shipDone(sh.node, sh.id, false)
				continue
			}
			if err := l.forward(broker.MirrorDataExchange, key, msg, sh.t, sh.id); err != nil {
				rq.shipDone(sh.node, sh.id, false)
			}
		}
	}
	if target != nil {
		// No in-sync mirror to wait for: the local append is durable, so
		// the confirm semantics degrade to R=1 until a mirror syncs.
		target.ClusterConfirm(seq, true)
	}
}

// replicateSettle streams committed settlements (single offset or batch)
// to every mirror, fire-and-forget for the consumer but confirm-tracked
// on the link so in-sync transitions wait for them.
func (rm *replManager) replicateSettle(vhost, queue string, off uint64, offs []uint64) {
	if rm.count.Load() == 0 {
		return
	}
	rq := rm.get(vhost, queue)
	if rq == nil {
		return
	}
	rq.mu.Lock()
	n := len(rq.mirrors)
	rq.mu.Unlock()
	if n == 0 || (offs != nil && len(offs) == 0) {
		return
	}
	count := 1
	if offs != nil {
		count = len(offs)
	}
	msg := broker.NewMessage(broker.MirrorAckExchange, queue, wire.Properties{}, 8*count)
	var b [8]byte
	if offs == nil {
		binary.BigEndian.PutUint64(b[:], off)
		msg.AppendBody(b[:])
	} else {
		for _, o := range offs {
			binary.BigEndian.PutUint64(b[:], o)
			msg.AppendBody(b[:])
		}
	}
	type shipOut struct {
		node int
		id   uint64
		t    *mirrorShipTarget
	}
	ships := make([]shipOut, 0, 2)
	now := time.Now()
	rq.mu.Lock()
	for node, m := range rq.mirrors {
		rq.shipSeq++
		m.outstanding[rq.shipSeq] = replShip{at: now}
		ships = append(ships, shipOut{node: node, id: rq.shipSeq, t: m.target})
	}
	rq.mu.Unlock()
	mirrorLag.Add(int64(len(ships)))
	for _, sh := range ships {
		l, err := rm.linkTo(sh.node, vhost)
		if err != nil {
			rq.shipDone(sh.node, sh.id, false)
			continue
		}
		if err := l.forward(broker.MirrorAckExchange, queue, msg, sh.t, sh.id); err != nil {
			rq.shipDone(sh.node, sh.id, false)
		}
	}
	msg.Release()
}

// shipDone resolves one outstanding ship (called from the link read loop
// via mirrorShipTarget, or synchronously on a forward that never left).
// A nack evicts the mirror — a standby that failed an append has
// diverged and must re-enter through reset + catch-up.
func (rq *replQueue) shipDone(node int, shipID uint64, ok bool) {
	var fire []*replPending
	rq.mu.Lock()
	m := rq.mirrors[node]
	if m == nil {
		rq.mu.Unlock()
		return // evicted; its eviction already settled the gauges
	}
	s, hit := m.outstanding[shipID]
	if !hit {
		rq.mu.Unlock()
		return
	}
	delete(m.outstanding, shipID)
	mirrorLag.Add(-1)
	if !ok {
		rq.evictLocked(m, &fire)
	} else {
		if s.data && m.state == mirInSync {
			if p := rq.pending[s.off]; p != nil {
				p.need--
				if p.need <= 0 {
					delete(rq.pending, s.off)
					fire = append(fire, p)
				}
			}
		}
		rq.maybeInsyncLocked(m)
	}
	rq.mu.Unlock()
	for _, p := range fire {
		p.target.ClusterConfirm(p.seq, true)
	}
}

// maybeInsyncLocked promotes a catching-up mirror to in-sync once its
// history scan is complete and nothing it was shipped is outstanding.
func (rq *replQueue) maybeInsyncLocked(m *replMirror) {
	if m.state != mirCatchingUp || !m.catchupDone || len(m.outstanding) != 0 {
		return
	}
	m.state = mirInSync
	rq.insync++
	insyncMirrors.Add(1)
	rq.updateUnderRepLocked()
}

// evictLocked removes a mirror. An in-sync mirror's outstanding data
// ships were counted in their offsets' withheld confirms; eviction
// releases that debt so the confirms resolve (collected into fire).
func (rq *replQueue) evictLocked(m *replMirror, fire *[]*replPending) {
	if rq.mirrors[m.node] != m {
		return
	}
	delete(rq.mirrors, m.node)
	if m.state == mirInSync {
		m.state = mirCatchingUp
		rq.insync--
		insyncMirrors.Add(-1)
		for _, s := range m.outstanding {
			if !s.data {
				continue
			}
			if p := rq.pending[s.off]; p != nil {
				p.need--
				if p.need <= 0 {
					delete(rq.pending, s.off)
					*fire = append(*fire, p)
				}
			}
		}
	}
	mirrorLag.Add(-int64(len(m.outstanding)))
	m.outstanding = make(map[uint64]replShip)
	rq.updateUnderRepLocked()
}

// updateUnderRepLocked keeps the under-replicated gauge in step with the
// queue's in-sync census (under-replicated: fewer than factor-1 in-sync
// mirrors).
func (rq *replQueue) updateUnderRepLocked() {
	under := !rq.dropped && rq.insync < rq.rm.factor-1
	if under == rq.underrep {
		return
	}
	rq.underrep = under
	if under {
		underReplicated.Add(1)
	} else {
		underReplicated.Add(-1)
	}
}

// armTimerLocked schedules the lag sweep while confirms are withheld.
func (rq *replQueue) armTimerLocked() {
	if rq.timerOn || len(rq.pending) == 0 {
		return
	}
	rq.timerOn = true
	time.AfterFunc(replLagWindow/2, rq.onLagTimer)
}

// onLagTimer evicts in-sync mirrors sitting on data ships older than the
// lag window, releasing the confirms they owed — the bounded catch-up
// window that keeps a wedged mirror from stalling producers forever. A
// safety net also force-resolves any confirm withheld past twice the
// window (the local append is durable either way).
func (rq *replQueue) onLagTimer() {
	var fire []*replPending
	now := time.Now()
	cutoff := now.Add(-replLagWindow)
	rq.mu.Lock()
	rq.timerOn = false
	var evict []*replMirror
	for _, m := range rq.mirrors {
		if m.state != mirInSync {
			continue
		}
		for _, s := range m.outstanding {
			if s.data && s.at.Before(cutoff) {
				evict = append(evict, m)
				break
			}
		}
	}
	for _, m := range evict {
		rq.evictLocked(m, &fire)
	}
	stale := now.Add(-2 * replLagWindow)
	for off, p := range rq.pending {
		if p.need <= 0 || p.at.Before(stale) {
			delete(rq.pending, off)
			fire = append(fire, p)
		}
	}
	rq.armTimerLocked()
	rq.mu.Unlock()
	for _, p := range fire {
		p.target.ClusterConfirm(p.seq, true)
	}
}

// nodeDown drops a dead node from every queue's mirror set, releasing any
// confirms it owed.
func (rm *replManager) nodeDown(node int) {
	rm.mu.Lock()
	qs := make([]*replQueue, 0, len(rm.queues))
	for _, rq := range rm.queues {
		qs = append(qs, rq)
	}
	rm.mu.Unlock()
	for _, rq := range qs {
		var fire []*replPending
		rq.mu.Lock()
		if m := rq.mirrors[node]; m != nil {
			rq.evictLocked(m, &fire)
		}
		rq.mu.Unlock()
		for _, p := range fire {
			p.target.ClusterConfirm(p.seq, true)
		}
	}
}

// choosePromotion picks the dead master's successor for one of its
// queues: the most-advanced in-sync mirror, falling back to the
// most-advanced mirror of any state, judged by how far each standby
// replica has applied. ok=false (no surviving mirror) falls back to the
// legacy ring-owner failover.
func (rm *replManager) choosePromotion(q QueueInfo) (int, bool) {
	rq := rm.get(q.VHost, q.Name)
	if rq == nil {
		return 0, false
	}
	type cand struct {
		node   int
		insync bool
		off    uint64
	}
	rq.mu.Lock()
	cands := make([]cand, 0, len(rq.mirrors))
	for node, m := range rq.mirrors {
		if !rm.c.dir.Ring().Has(node) {
			continue // mirror died too
		}
		st := rm.c.storeOf(node)
		if st == nil {
			continue
		}
		cands = append(cands, cand{node: node, insync: m.state == mirInSync, off: st.nextOffset(q.VHost, q.Name)})
	}
	rq.mu.Unlock()
	best := -1
	var bestOff uint64
	bestInsync := false
	for _, cd := range cands {
		switch {
		case best < 0,
			cd.insync && !bestInsync,
			cd.insync == bestInsync && cd.off > bestOff:
			best, bestOff, bestInsync = cd.node, cd.off, cd.insync
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// reconcileAll re-runs mirror placement for every mastered queue — the
// rebalance-on-join audit's replication half: a node re-entering the ring
// is re-established (reset + catch-up) wherever placement wants it.
func (rm *replManager) reconcileAll() {
	rm.mu.Lock()
	qs := make([]*replQueue, 0, len(rm.queues))
	for _, rq := range rm.queues {
		qs = append(qs, rq)
	}
	rm.mu.Unlock()
	for _, rq := range qs {
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
	rm.count.Store(0)
	rm.mu.Unlock()
	for _, rq := range qs {
		rq.mu.Lock()
		rq.dropped = true
		for _, m := range rq.mirrors {
			if m.state == mirInSync {
				rq.insync--
				insyncMirrors.Add(-1)
			}
			mirrorLag.Add(-int64(len(m.outstanding)))
		}
		rq.mirrors = make(map[int]*replMirror)
		rq.pending = make(map[uint64]*replPending)
		rq.updateUnderRepLocked()
		rq.mu.Unlock()
	}
}
