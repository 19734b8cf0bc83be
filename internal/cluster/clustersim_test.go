package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestClusterSim steps a cluster of 3–5 nodes and 1–4 queues, at a
// replication factor of 1–3, through a seeded schedule of publishes,
// settles, mirror ships that are acknowledged, refused or lost (and
// retried), catch-up scans, lag ticks, node kills and restarts. Each queue
// is a real mirrorSet core on its master; placement is a real Directory
// and Ring; what a kill or restart does is planFailover's or planJoin's
// plan, carried out on the model's disks. At every kill:
//   - no confirmed, unsettled offset of a durable queue is lost: an
//     in-sync replica or the dead node's log holds it, and its new master
//     does;
//   - no mirror is promoted unless its replica holds every offset the
//     master confirmed and has not settled.
//
// Now and then, and at the end, the sim lets the cluster go quiet (every
// scan finishes, every ship is acknowledged, within a bound) and checks
// that each replicated queue has rf−1 in-sync mirrors on live nodes, or
// as many as the live nodes allow. A queue whose mirror was evicted since
// the last kill or restart is exempt: a mirror lost to eviction alone comes
// back only on the next topology event, and the sim counts the seeds that
// end under-replicated that way.
//
// The model's restart drops the logs a node holds of queues pinned
// elsewhere. The broker instead recovers such a log, the one a promotion
// left on the dead master's disk, and re-pins its queue to the restarted
// node: a known defect the sim leaves out.
func TestClusterSim(t *testing.T) {
	seeds := uint64(10000)
	if raceEnabled || testing.Short() {
		seeds = 500
	}
	var total simCounts
	for seed := uint64(1); seed <= seeds; seed++ {
		s, err := runClusterSim(seed, false)
		if err != nil {
			s, _ = runClusterSim(seed, true)
			t.Fatalf("seed %d: %v\ntrace:\n%s", seed, err, strings.Join(s.trace, "\n"))
		}
		total.add(s.counts)
	}
	if total.promotions == 0 || total.relocations == 0 || total.handbacks == 0 || total.evictions == 0 || total.quiet == 0 {
		t.Fatalf("schedules reached %+v; want promotions, relocations, hand-backs, evictions and quiet checks", total)
	}
	t.Logf("%d seeds: %d kills, %d restarts, %d promotions, %d relocations, %d hand-backs, %d evictions, %d quiet checks; %d seeds end with a queue under-replicated after an eviction",
		seeds, total.kills, total.restarts, total.promotions, total.relocations, total.handbacks, total.evictions, total.quiet, total.underByEviction)
}

// simCounts is what a schedule reached.
type simCounts struct {
	kills, restarts, promotions, relocations, handbacks, evictions, quiet, underByEviction int
}

func (c *simCounts) add(o simCounts) {
	c.kills += o.kills
	c.restarts += o.restarts
	c.promotions += o.promotions
	c.relocations += o.relocations
	c.handbacks += o.handbacks
	c.evictions += o.evictions
	c.quiet += o.quiet
	c.underByEviction += o.underByEviction
}

// simLog is a queue's directory on a node's disk: its master's segment
// log, or a standby replica. The sim syncs every write.
type simLog struct {
	standby bool
	recs    map[uint64]uint64 // offset → message id
	settled map[uint64]bool
	pend    map[uint64]bool // a replica's acks that outran their record
	next    uint64          // one past the highest offset written
}

func newSimLog(standby bool) *simLog {
	return &simLog{standby: standby, recs: make(map[uint64]uint64), settled: make(map[uint64]bool), pend: make(map[uint64]bool)}
}

func (l *simLog) write(off, id uint64) {
	l.recs[off] = id
	l.next = max(l.next, off+1)
	if l.pend[off] {
		delete(l.pend, off)
		l.settled[off] = true
	}
}

// unsettled lists the offsets written and not settled, in order.
func (l *simLog) unsettled() []uint64 {
	var offs []uint64
	for off := range l.recs {
		if !l.settled[off] {
			offs = append(offs, off)
		}
	}
	slices.Sort(offs)
	return offs
}

// simNode is one node: its disk, its mirror store's refusals and the cores
// of the replicated queues it masters.
type simNode struct {
	live    bool
	disk    map[string]*simLog
	refused map[string]bool
	cores   map[string]*simCore
}

// simCore is one replicated queue on its master: the real core, and the
// mirrors it is establishing (by join id).
type simCore struct {
	q     string
	set   mirrorSet
	estab map[uint64]*simEstab
}

// simEstab is one mirror's establishment: reset and made ready at the
// master's frontier, then the scan of every offset below it, then done.
type simEstab struct {
	node           int
	ready          bool
	frontier, scan uint64
}

// simShip is a ship on its way to a mirror.
type simShip struct {
	replShip
	core  *simCore
	msg   uint64   // a data ship's message id
	offs  []uint64 // a settle ship's offsets
	retry bool     // its first transmission was lost: the link's retry carries it
}

type clusterSim struct {
	rng       *rand.Rand
	rf        int
	queues    []string
	transient map[string]bool
	dir       *Directory
	nodes     []*simNode
	ships     []*simShip
	now       time.Time
	lastID    uint64
	confirmed map[uint64]bool // message ids whose producer confirm fired
	exempt    map[string]bool // a mirror of the queue was evicted since the last kill or restart
	under     bool            // the last quiet check exempted an under-replicated queue
	tracing   bool
	trace     []string
	counts    simCounts
}

func (s *clusterSim) logf(format string, args ...any) {
	if s.tracing {
		s.trace = append(s.trace, fmt.Sprintf(format, args...))
	}
}

func runClusterSim(seed uint64, tracing bool) (*clusterSim, error) {
	rng := rand.New(rand.NewPCG(seed, 0x636c7573746572))
	n, m := 3+rng.IntN(3), 1+rng.IntN(4)
	s := &clusterSim{
		rng: rng, rf: min(1+rng.IntN(3), n), dir: NewDirectory(n, 8), transient: make(map[string]bool),
		confirmed: make(map[uint64]bool), exempt: make(map[string]bool), tracing: tracing,
	}
	for range n {
		s.nodes = append(s.nodes, &simNode{live: true, disk: make(map[string]*simLog), refused: make(map[string]bool), cores: make(map[string]*simCore)})
	}
	s.logf("%d nodes, replication factor %d", n, s.rf)
	for i := range m {
		q := fmt.Sprintf("q%d", i)
		s.queues = append(s.queues, q)
		s.transient[q] = rng.IntN(8) == 0
		owner := s.dir.Owner("/", q)
		s.dir.Register("/", q, !s.transient[q], owner)
		s.nodes[owner].disk[q] = newSimLog(false)
		s.logf("declare %s on %d (transient %v)", q, owner, s.transient[q])
		s.register(q, owner)
	}
	steps := 50 + rng.IntN(150)
	for i := range steps {
		if err := s.step(); err != nil {
			return s, fmt.Errorf("step %d: %w", i, err)
		}
	}
	err := s.quiet()
	if s.under {
		s.counts.underByEviction = 1
	}
	return s, err
}

// simWeights are the odds of the next step's kind.
var simWeights = [...]int{24, 8, 30, 24, 2, 3, 3, 1}

func (s *clusterSim) step() error {
	total := 0
	for _, w := range simWeights {
		total += w
	}
	k, n := 0, s.rng.IntN(total)
	for n >= simWeights[k] {
		n -= simWeights[k]
		k++
	}
	switch k {
	case 0:
		s.publish(s.queues[s.rng.IntN(len(s.queues))], s.rng.IntN(8) != 0)
	case 1:
		s.settle(s.queues[s.rng.IntN(len(s.queues))])
	case 2:
		if len(s.ships) > 0 {
			s.ship(s.rng.IntN(len(s.ships)), s.rng.IntN(16))
		}
	case 3:
		s.progress(s.estabs(), s.rng.IntN(64))
	case 4:
		s.tick(time.Duration(s.rng.IntN(256)) * replLagWindow / 64)
	case 5:
		return s.kill(s.rng.IntN(len(s.nodes)))
	case 6:
		return s.restart(s.rng.IntN(len(s.nodes)))
	case 7:
		return s.quiet()
	}
	return nil
}

// carry does what a core call left: ships go out (one to a dead node is
// refused at once, as a frame no link takes), confirms fire, and an
// eviction the caller names alone exempts the queue from healing.
func (s *clusterSim) carry(c *simCore, w mirrorWork, alone bool, id uint64, offs []uint64) {
	if w.evicted > 0 {
		s.counts.evictions += w.evicted
		s.exempt[c.q] = s.exempt[c.q] || alone
		s.logf("  %s: %d mirror(s) evicted (alone %v)", c.q, w.evicted, alone)
	}
	for _, cf := range w.confirms {
		s.confirmed[cf.seq] = true
	}
	for _, sh := range w.ships {
		if !s.nodes[sh.node].live {
			var b workBuf
			s.carry(c, c.set.verdict(b.work(), sh.id, false), false, 0, nil)
			continue
		}
		s.ships = append(s.ships, &simShip{replShip: sh, core: c, msg: id, offs: offs})
	}
}

// master returns the node a queue is pinned on and its live log there,
// or nil.
func (s *clusterSim) master(q string) (int, *simLog) {
	i := s.dir.Owner("/", q)
	if l := s.nodes[i].disk[q]; s.nodes[i].live && l != nil && !l.standby {
		return i, l
	}
	return i, nil
}

func (s *clusterSim) publish(q string, confirm bool) {
	i, l := s.master(q)
	if l == nil {
		return
	}
	off := l.next
	s.lastID++
	l.write(off, s.lastID)
	s.logf("publish %s @%d id %d on %d (confirm %v)", q, off, s.lastID, i, confirm)
	pc := producerConfirm{seq: s.lastID}
	if confirm {
		pc.target = msTarget{}
	}
	if c := s.nodes[i].cores[q]; c != nil {
		var b workBuf
		s.carry(c, c.set.append(b.work(), off, pc, s.now), false, s.lastID, nil)
	} else if confirm {
		s.confirmed[s.lastID] = true
	}
}

func (s *clusterSim) settle(q string) {
	i, l := s.master(q)
	if l == nil {
		return
	}
	offs := l.unsettled()
	if len(offs) == 0 {
		return
	}
	off := offs[s.rng.IntN(len(offs))]
	l.settled[off] = true
	s.logf("settle %s @%d on %d", q, off, i)
	if c := s.nodes[i].cores[q]; c != nil {
		var b workBuf
		s.carry(c, c.set.settle(b.work()), false, 0, []uint64{off})
	}
}

// ship resolves ship i: fates 0–12 deliver it, 13 has the mirror refuse
// it, and 14–15 lose it on the link, which carries it once more and then
// gives up.
func (s *clusterSim) ship(i, fate int) {
	sh := s.ships[i]
	s.ships = slices.Delete(s.ships, i, i+1)
	if fate >= 14 && !sh.retry {
		sh.retry = true
		s.ships = append(s.ships, sh)
		s.logf("ship %d of %s to %d lost; retried", sh.id, sh.core.q, sh.node)
		return
	}
	ok := fate < 13 && s.apply(sh) == nil
	s.logf("ship %d of %s to %d (off %d, settle %v): ok %v", sh.id, sh.core.q, sh.node, sh.off, sh.settle, ok)
	var b workBuf
	s.carry(sh.core, sh.core.set.verdict(b.work(), sh.id, ok), !ok, 0, nil)
}

// apply is the mirror store: a frame lands in the replica, which it
// creates, unless the node took the queue over as master.
func (s *clusterSim) apply(sh *simShip) error {
	n, q := s.nodes[sh.node], sh.core.q
	if n.refused[q] {
		return errors.New("refused")
	}
	l := n.disk[q]
	if l == nil {
		l = newSimLog(true)
		n.disk[q] = l
	}
	if !l.standby {
		return errors.New("a mirror frame for a queue mastered here")
	}
	if !sh.settle {
		if _, dup := l.recs[sh.off]; !dup {
			l.write(sh.off, sh.msg)
		}
		return nil
	}
	for _, off := range sh.offs {
		if _, ok := l.recs[off]; ok {
			l.settled[off] = true
		} else {
			l.pend[off] = true
		}
	}
	return nil
}

// simEstabRef names an establishment under way.
type simEstabRef struct {
	c    *simCore
	join uint64
}

// estabs lists the establishments under way on live masters, in a
// reproducible order.
func (s *clusterSim) estabs() []simEstabRef {
	var out []simEstabRef
	for _, n := range s.nodes {
		if !n.live || len(n.cores) == 0 {
			continue
		}
		for _, q := range s.queues {
			if c := n.cores[q]; c != nil {
				for _, join := range sorted(c.estab) {
					out = append(out, simEstabRef{c, join})
				}
			}
		}
	}
	return out
}

// progress takes one step of establishment pick: the reset and ready,
// the scan of one offset, or the scan's end.
func (s *clusterSim) progress(es []simEstabRef, pick int) {
	if len(es) == 0 {
		return
	}
	c, join := es[pick%len(es)].c, es[pick%len(es)].join
	e := c.estab[join]
	_, l := s.master(c.q)
	if l == nil {
		return
	}
	var b workBuf
	switch {
	case !e.ready:
		t := s.nodes[e.node]
		if !t.live || t.refused[c.q] {
			delete(c.estab, join)
			s.logf("establish %s on %d: reset failed", c.q, e.node)
			s.carry(c, c.set.leave(b.work(), 0, join), false, 0, nil)
			return
		}
		delete(t.disk, c.q)
		if !c.set.ready(join, l.next) {
			delete(c.estab, join)
			return
		}
		e.ready, e.frontier = true, l.next
		s.logf("establish %s on %d: ready at %d", c.q, e.node, l.next)
	case e.scan < e.frontier:
		off := e.scan
		e.scan++
		id, ok := l.recs[off]
		if !ok {
			return
		}
		w, in := c.set.catchup(b.work(), join, off, false)
		if !in {
			delete(c.estab, join)
			return
		}
		s.carry(c, w, false, id, nil)
		if l.settled[off] {
			w, _ = c.set.catchup(b.work(), join, off, true)
			s.carry(c, w, false, 0, []uint64{off})
		}
	default:
		delete(c.estab, join)
		s.logf("establish %s on %d: scan done", c.q, e.node)
		s.carry(c, c.set.scanDone(b.work(), join), false, 0, nil)
	}
}

func (s *clusterSim) tick(d time.Duration) {
	s.now = s.now.Add(d)
	s.logf("tick +%v", d)
	for _, n := range s.nodes {
		for _, q := range s.queues {
			if c := n.cores[q]; c != nil && n.live {
				var b workBuf
				s.carry(c, c.set.tick(b.work(), s.now), true, 0, nil)
			}
		}
	}
}

// register is queueRegistered: a durable queue on a replicating master
// gets a core, which joins the mirrors the ring wants.
func (s *clusterSim) register(q string, node int) {
	if s.rf < 2 || s.transient[q] {
		return
	}
	c := s.nodes[node].cores[q]
	if c == nil {
		c = &simCore{q: q, set: newMirrorSet(s.rf - 1), estab: make(map[uint64]*simEstab)}
		s.nodes[node].cores[q] = c
	}
	s.ensureMirrors(c, node)
}

func (s *clusterSim) ensureMirrors(c *simCore, node int) {
	owners := slices.DeleteFunc(s.dir.Ring().Owners(c.q, s.rf+1), func(n int) bool { return n == node })
	for _, m := range owners[:min(len(owners), s.rf-1)] {
		if join := c.set.join(m); join != 0 {
			c.estab[join] = &simEstab{node: m}
			s.logf("  %s joins a mirror on %d", c.q, m)
		}
	}
}

// view is Cluster.view over the model.
func (s *clusterSim) view(node int, join bool) view {
	ring := s.dir.Ring()
	v := view{node: node}
	for j := range s.nodes {
		v.nodes = append(v.nodes, nodeView{dataDir: true, standby: s.rf >= 2 && ring.Has(j), replicates: s.rf >= 2})
	}
	qs := s.dir.Queues()
	slices.SortFunc(qs, func(a, b QueueInfo) int { return strings.Compare(a.Name, b.Name) })
	for _, q := range qs {
		qv := queueView{QueueInfo: q, owner: -1}
		if o, ok := ring.Owner(q.Name); ok {
			qv.owner = o
		}
		src := s.nodes[q.Node]
		switch {
		case !join && q.Node == node:
			if c := src.cores[q.Name]; c != nil {
				for _, m := range c.set.promotable() {
					r := replica{node: m}
					if l := s.nodes[m].disk[q.Name]; l != nil && l.standby {
						r.next = l.next
					}
					qv.insync = append(qv.insync, r)
				}
			}
		case join && qv.owner == node && q.Node != node:
			qv.replicated = src.cores[q.Name] != nil
			l := src.disk[q.Name]
			qv.quiescent = src.live && l != nil && !l.standby && len(l.unsettled()) == 0
		}
		v.queues = append(v.queues, qv)
	}
	return v
}

// run is Cluster.run over the model. Before a promotion it checks that
// the mirror holds what want, the dead master's confirmed and unsettled
// offsets of each queue, says it must.
func (s *clusterSim) run(plan []action, want map[string]map[uint64]uint64) error {
	failed := make(map[string]bool)
	for _, a := range plan {
		if failed[a.q.Name] {
			continue
		}
		s.logf("  %v", a)
		if a.kind == actPromote {
			l := s.nodes[a.q.Node].disk[a.q.Name]
			for _, off := range sorted(want[a.q.Name]) {
				if l == nil || l.recs[off] != want[a.q.Name][off] {
					return fmt.Errorf("promoted mirror of %s on node %d lacks confirmed offset %d", a.q.Name, a.q.Node, off)
				}
			}
		}
		if err := s.act(a); err != nil {
			failed[a.q.Name] = true
			s.logf("    failed: %v", err)
		}
	}
	return nil
}

// act is Cluster.act over the model.
func (s *clusterSim) act(a action) error {
	q, to := a.q.Name, s.nodes[a.q.Node]
	switch a.kind {
	case actSurrender:
		src := s.nodes[a.from]
		if l := src.disk[q]; !src.live || l == nil || l.standby {
			return errors.New("no such queue")
		}
		if s.transient[q] {
			delete(src.disk, q)
		}
		return nil
	case actRepin:
		s.dir.Repin("/", q, a.q.Node)
		s.register(q, a.q.Node)
		return nil
	case actRemirror:
		for _, q := range s.queues {
			if c := to.cores[q]; c != nil {
				if a.from >= 0 {
					var b workBuf
					s.carry(c, c.set.leave(b.work(), a.from, 0), false, 0, nil)
				}
				s.ensureMirrors(c, a.q.Node)
			}
		}
		return nil
	case actPromote:
		to.refused[q] = true
		if l := to.disk[q]; l != nil {
			l.standby = false
			clear(l.pend)
		}
		s.counts.promotions++
	case actRelocate:
		if a.wipe {
			delete(to.disk, q)
			to.refused[q] = true
		}
		if src := s.nodes[a.from]; a.log && src.disk[q] != nil {
			if to.disk[q] != nil {
				return errors.New("the log's directory is taken")
			}
			to.disk[q] = src.disk[q]
			delete(src.disk, q)
		}
		s.counts.relocations++
	case actDeclare:
		delete(s.nodes[a.from].disk, q)
		delete(to.disk, q)
	}
	if a.from >= 0 && s.nodes[a.from].live {
		s.counts.handbacks++
	}
	if l := to.disk[q]; l == nil {
		to.disk[q] = newSimLog(false)
	} else {
		l.standby = false
	}
	return nil
}

// kill is Cluster.Kill over the model, followed by the loss check.
func (s *clusterSim) kill(x int) error {
	live := 0
	for _, n := range s.nodes {
		if n.live {
			live++
		}
	}
	node := s.nodes[x]
	if !node.live || live == 1 {
		return nil
	}
	s.logf("kill %d", x)
	s.counts.kills++
	// The survivors' links to the node close: what they carry to it is
	// refused.
	for i := 0; i < len(s.ships); {
		if sh := s.ships[i]; sh.node == x {
			s.ships = slices.Delete(s.ships, i, i+1)
			var b workBuf
			s.carry(sh.core, sh.core.set.verdict(b.work(), sh.id, false), false, 0, nil)
			continue
		}
		i++
	}
	node.live = false
	clear(node.refused)
	s.dir.Ring().Remove(x)
	want := make(map[string]map[uint64]uint64)
	for _, q := range s.queues {
		if l := node.disk[q]; s.dir.Owner("/", q) == x && l != nil && !l.standby && !s.transient[q] {
			want[q] = make(map[uint64]uint64)
			for _, off := range l.unsettled() {
				if s.confirmed[l.recs[off]] {
					want[q][off] = l.recs[off]
				}
			}
		}
	}
	if err := s.run(planFailover(s.view(x, false)), want); err != nil {
		return err
	}
	// The dead master's cores go with it, and the ships they issued.
	for _, c := range node.cores {
		var b workBuf
		c.set.drop(b.work())
	}
	clear(node.cores)
	s.ships = slices.DeleteFunc(s.ships, func(sh *simShip) bool { return sh.core.set.dropped })
	for _, q := range sortedNames(want) {
		i, l := s.master(q)
		for _, off := range sorted(want[q]) {
			if l == nil || l.recs[off] != want[q][off] {
				return fmt.Errorf("kill of %d lost confirmed offset %d of %s (now pinned on %d)", x, off, q, i)
			}
		}
	}
	clear(s.exempt)
	return nil
}

// restart is Cluster.Restart over the model.
func (s *clusterSim) restart(x int) error {
	node := s.nodes[x]
	if node.live {
		return nil
	}
	s.logf("restart %d", x)
	s.counts.restarts++
	node.live = true
	for q, l := range node.disk {
		if !l.standby && s.dir.Owner("/", q) != x {
			delete(node.disk, q)
		}
	}
	for _, q := range s.queues {
		if l := node.disk[q]; l != nil && !l.standby {
			s.register(q, x) // recovered: mastered here again
		}
	}
	s.dir.NodeUp(x)
	if err := s.run(planJoin(s.view(x, true)), nil); err != nil {
		return err
	}
	clear(s.exempt)
	return nil
}

// quietBound bounds the steps a quiet cluster takes to finish every scan
// and acknowledge every ship.
const quietBound = 100000

// quiet finishes every establishment and acknowledges every ship, then
// checks that each replicated queue on a live master has rf−1 in-sync
// mirrors on live nodes, or one per other live node if fewer.
func (s *clusterSim) quiet() error {
	s.logf("quiet")
	s.counts.quiet++
	for n := 0; ; n++ {
		if n == quietBound {
			return fmt.Errorf("not quiet after %d steps", quietBound)
		}
		if es := s.estabs(); len(es) > 0 {
			s.progress(es, 0)
		} else if len(s.ships) > 0 {
			s.ship(0, 0)
		} else {
			break
		}
	}
	live := 0
	for _, n := range s.nodes {
		if n.live {
			live++
		}
	}
	s.under = false
	for _, q := range s.queues {
		i, l := s.master(q)
		c := s.nodes[i].cores[q]
		if l == nil || c == nil {
			continue
		}
		insync := 0
		for _, m := range c.set.promotable() {
			if s.nodes[m].live {
				insync++
			}
		}
		if want := min(s.rf-1, live-1); insync < want {
			if !s.exempt[q] {
				return fmt.Errorf("%s has %d in-sync mirrors on live nodes after going quiet, want %d", q, insync, want)
			}
			s.under = true
		}
	}
	return nil
}

// sortedNames returns a map's string keys in order.
func sortedNames[V any](mp map[string]V) []string {
	ks := make([]string, 0, len(mp))
	for k := range mp {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
