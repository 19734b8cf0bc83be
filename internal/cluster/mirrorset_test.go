package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// msOpKind is one event in a replicated queue's life that its mirrorSet
// is driven through.
type msOpKind uint8

const (
	msJoin     msOpKind = iota // a node joins as a mirror
	msReady                    // a joined mirror's replica is wiped: ready at the master's frontier
	msScan                     // a ready mirror's scan ships its next record, or is done
	msQuit                     // an establishment fails
	msAppend                   // the master appends a record, in confirm mode or not
	msSettle                   // the master settles a record
	msAck                      // a mirror acknowledges an outstanding ship
	msNack                     // a mirror refuses one
	msTick                     // the lag clock advances
	msNodeDown                 // a mirror's node dies
	msKill                     // the master dies: promotion, then a new master
	numMsOps
)

// msOp is a step; pick chooses the node, mirror, ship, record or time.
type msOp struct {
	kind msOpKind
	pick uint8
}

// msNodes is how many nodes besides the master can be mirrors.
const msNodes = 3

// msTarget stands in for a producer channel: the core never calls it.
type msTarget struct{}

func (msTarget) ClusterConfirm(uint64, bool) {}

// msMirror is the model's view of one mirror.
type msMirror struct {
	node              int
	ready, scanned    bool
	frontier, scanPos uint64
	pre               map[uint64]bool // ships issued up to the scan's end, outstanding
	acked             bool            // a ship was acknowledged since the last tick
}

// msHeld is a withheld confirm: seq, and the mirrors that owe it.
type msHeld struct {
	seq  uint64
	owed map[uint64]bool // join ids
	at   time.Time
}

// msModel runs a mirrorSet against a reference of the protocol and of
// each mirror's replica, and checks after every step that the core fired
// exactly the confirms that came due, issued the ships the reference
// expects, and agrees on which mirrors are in-sync; and at every master
// kill, that each mirror the core calls promotable holds every offset the
// master confirmed and has not settled.
type msModel struct {
	s   mirrorSet
	now time.Time

	// The reference of the current master.
	next      uint64 // the master's next offset
	settled   map[uint64]bool
	confirmed map[uint64]bool // offsets whose producer confirm fired
	held      map[uint64]*msHeld
	mirrors   map[uint64]*msMirror // by join id
	ships     map[uint64]replShip  // outstanding, by id
	joinOf    map[uint64]uint64    // ship id → the join id of its mirror
	replica   map[int]map[uint64]bool
	gauges    struct{ lag, insync, under int }

	seq          uint64
	fired        map[uint64]int // seq → times the core fired it
	want         map[uint64]bool
	lagReleases  int // confirms the lag clock released
	letOff       int // lagging mirrors let off their debts
	wedged       int // lagging mirrors evicted
	promotions   int // kills that found a promotable mirror
	halfScanKill int // kills with a mirror joined but not in-sync
}

func newMsModel() *msModel {
	m := &msModel{fired: make(map[uint64]int), replica: make(map[int]map[uint64]bool)}
	m.restart()
	return m
}

// restart starts a new master with an empty log and no mirror.
func (m *msModel) restart() {
	m.s = newMirrorSet(1)
	m.next = 0
	m.settled = make(map[uint64]bool)
	m.confirmed = make(map[uint64]bool)
	m.held = make(map[uint64]*msHeld)
	m.mirrors = make(map[uint64]*msMirror)
	m.ships = make(map[uint64]replShip)
	m.joinOf = make(map[uint64]uint64)
	m.gauges.lag, m.gauges.insync, m.gauges.under = 0, 0, 1
}

// sorted returns keys of a map in order, so a pick is reproducible.
func sorted[V any](mp map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(mp))
	for k := range mp {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// pickMirror picks a mirror that satisfies ok, or returns 0.
func (m *msModel) pickMirror(pick uint8, ok func(*msMirror) bool) uint64 {
	var js []uint64
	for _, j := range sorted(m.mirrors) {
		if ok(m.mirrors[j]) {
			js = append(js, j)
		}
	}
	if len(js) == 0 {
		return 0
	}
	return js[int(pick)%len(js)]
}

func (m *msModel) insync(mm *msMirror) bool { return mm.scanned && len(mm.pre) == 0 }

// evict removes a mirror from the reference, with its ships; the
// confirms it alone still owed come due.
func (m *msModel) evict(join uint64) {
	delete(m.mirrors, join)
	for id, sh := range m.ships {
		if m.joinOf[id] != join {
			continue
		}
		delete(m.ships, id)
		if sh.gate {
			m.owe(sh.off, join)
		}
	}
}

// owe takes join's debt off the confirm withheld for off.
func (m *msModel) owe(off, join uint64) {
	h := m.held[off]
	delete(h.owed, join)
	if len(h.owed) == 0 {
		delete(m.held, off)
		m.confirmed[off] = true
		m.want[h.seq] = true
	}
}

func (m *msModel) step(op msOp) error {
	var b workBuf
	w := b.work()
	m.want = make(map[uint64]bool)
	var wantShips []replShip // id left 0: the core numbers them
	heldBefore := len(m.held)
	switch op.kind {
	case msJoin:
		node := 1 + int(op.pick)%msNodes
		have := m.pickMirror(0, func(mm *msMirror) bool { return mm.node == node }) != 0
		join := m.s.join(node)
		if (join != 0) == have {
			return fmt.Errorf("join of node %d gave id %d with a mirror there %v", node, join, have)
		}
		if join != 0 {
			m.mirrors[join] = &msMirror{node: node}
		}
	case msReady:
		join := m.pickMirror(op.pick, func(mm *msMirror) bool { return !mm.ready })
		if join == 0 {
			break
		}
		mm := m.mirrors[join]
		m.replica[mm.node] = make(map[uint64]bool)
		if !m.s.ready(join, m.next) {
			return fmt.Errorf("ready of join %d refused", join)
		}
		mm.ready, mm.frontier = true, m.next
	case msScan:
		join := m.pickMirror(op.pick, func(mm *msMirror) bool { return mm.ready && !mm.scanned })
		if join == 0 {
			break
		}
		mm := m.mirrors[join]
		if mm.scanPos == mm.frontier {
			// Above the frontier, records and settles are the live ships'.
			var ok bool
			if w, ok = m.s.catchup(w, join, mm.frontier+uint64(op.pick), false); !ok || len(w.ships) != 0 {
				return fmt.Errorf("scan past the frontier of join %d: ok %v, %d ships", join, ok, len(w.ships))
			}
			w = m.s.scanDone(w, join)
			mm.scanned, mm.pre = true, make(map[uint64]bool)
			for id := range m.ships {
				if m.joinOf[id] == join {
					mm.pre[id] = true
				}
			}
			break
		}
		off := mm.scanPos
		mm.scanPos++
		var ok bool
		if w, ok = m.s.catchup(w, join, off, m.settled[off]); !ok {
			return fmt.Errorf("scan of join %d stopped at offset %d", join, off)
		}
		wantShips = append(wantShips, replShip{node: mm.node, off: off, settle: m.settled[off]})
	case msQuit:
		join := m.pickMirror(op.pick, func(mm *msMirror) bool { return !mm.scanned })
		if join == 0 {
			break
		}
		m.evict(join)
		w = m.s.leave(w, 0, join)
	case msAppend:
		off := m.next
		m.next++
		c := producerConfirm{}
		if op.pick%4 != 0 {
			m.seq++
			c = producerConfirm{target: msTarget{}, seq: m.seq}
		}
		h := &msHeld{seq: c.seq, owed: make(map[uint64]bool), at: m.now}
		for _, join := range sorted(m.mirrors) {
			mm := m.mirrors[join]
			if !mm.ready {
				continue
			}
			gate := c.target != nil && mm.scanned
			if gate {
				h.owed[join] = true
			}
			wantShips = append(wantShips, replShip{node: mm.node, off: off, gate: gate})
		}
		switch {
		case len(h.owed) > 0:
			m.held[off] = h
		case c.target != nil:
			m.confirmed[off] = true
			m.want[c.seq] = true
		}
		w = m.s.append(w, off, c, m.now)
		if len(m.held) > 0 && heldBefore == 0 && !w.arm {
			return fmt.Errorf("append of offset %d withheld the first confirm without running the lag clock", off)
		}
	case msSettle:
		if m.next == 0 {
			break
		}
		off := uint64(op.pick) % m.next
		if m.settled[off] {
			break
		}
		m.settled[off] = true
		for _, join := range sorted(m.mirrors) {
			if mm := m.mirrors[join]; mm.ready {
				wantShips = append(wantShips, replShip{node: mm.node, settle: true})
			}
		}
		w = m.s.settle(w)
	case msAck, msNack:
		ids := sorted(m.ships)
		if len(ids) == 0 {
			break
		}
		id := ids[int(op.pick)%len(ids)]
		sh, join := m.ships[id], m.joinOf[id]
		mm := m.mirrors[join]
		if op.kind == msNack {
			m.evict(join)
			w = m.s.verdict(w, id, false)
			break
		}
		delete(m.ships, id)
		if !sh.settle {
			m.replica[mm.node][sh.off] = true
		}
		if sh.gate {
			m.owe(sh.off, join)
		}
		delete(mm.pre, id)
		mm.acked = true
		w = m.s.verdict(w, id, true)
	case msTick:
		m.now = m.now.Add(time.Duration(op.pick) * replLagWindow / 64)
		cutoff := m.now.Add(-replLagWindow)
		lagging := make(map[uint64]bool)
		for _, h := range m.held {
			if h.at.Before(cutoff) {
				for j := range h.owed {
					lagging[j] = true
				}
			}
		}
		for _, j := range sorted(lagging) {
			if mm := m.mirrors[j]; mm.acked {
				// Slow, not wedged: let off its debts, in-sync only once
				// everything issued so far is acknowledged.
				m.letOff++
				for id, sh := range m.ships {
					if m.joinOf[id] != j {
						continue
					}
					mm.pre[id] = true
					if sh.gate {
						sh.gate = false
						m.ships[id] = sh
						m.owe(sh.off, j)
					}
				}
				continue
			}
			m.wedged++
			m.evict(j)
		}
		for _, mm := range m.mirrors {
			mm.acked = false
		}
		m.lagReleases += len(m.want)
		w = m.s.tick(w, m.now)
		if w.arm != (len(m.held) > 0) {
			return fmt.Errorf("tick left the lag clock running %v with %d confirms withheld", w.arm, len(m.held))
		}
	case msNodeDown:
		node := 1 + int(op.pick)%msNodes
		if join := m.pickMirror(0, func(mm *msMirror) bool { return mm.node == node }); join != 0 {
			m.evict(join)
		}
		w = m.s.leave(w, node, 0)
	case msKill:
		return m.kill()
	}
	return m.check(w, wantShips)
}

// check compares what one step's call returned, and the core's state
// after it, with the reference.
func (m *msModel) check(w mirrorWork, wantShips []replShip) error {
	for _, c := range w.confirms {
		if m.fired[c.seq]++; m.fired[c.seq] > 1 {
			return fmt.Errorf("confirm %d fired twice", c.seq)
		}
		if !m.want[c.seq] {
			return fmt.Errorf("confirm %d fired before it came due", c.seq)
		}
		delete(m.want, c.seq)
	}
	for seq := range m.want {
		return fmt.Errorf("confirm %d came due and did not fire", seq)
	}
	if len(w.ships) != len(wantShips) {
		return fmt.Errorf("%d ships issued, want %d", len(w.ships), len(wantShips))
	}
	for i, sh := range w.ships {
		want := wantShips[i]
		if want.id = sh.id; sh != want {
			return fmt.Errorf("ship %+v issued, want %+v", sh, want)
		}
		if _, dup := m.ships[sh.id]; dup || sh.id == 0 {
			return fmt.Errorf("ship id %d reused", sh.id)
		}
		m.ships[sh.id] = sh
		m.joinOf[sh.id] = m.pickMirror(0, func(mm *msMirror) bool { return mm.node == sh.node })
	}
	m.gauges.lag += w.lag
	m.gauges.insync += w.insync
	m.gauges.under += w.under
	return m.agree()
}

// agree checks that the core holds the reference's mirrors, ships and
// withheld confirms, calls in-sync exactly the mirrors whose ships issued
// up to the scan's end are acknowledged, and reported every change of
// the census.
func (m *msModel) agree() error {
	var joins []uint64
	insync := 0
	for _, mr := range m.s.mirrors {
		joins = append(joins, mr.join)
		mm := m.mirrors[mr.join]
		if mm == nil {
			continue
		}
		if want := m.insync(mm); mr.insync() != want {
			return fmt.Errorf("mirror on node %d in-sync %v, want %v (%d ships outstanding, %d of them issued before its scan ended)",
				mm.node, mr.insync(), want, mr.out, len(mm.pre))
		}
		if m.insync(mm) {
			insync++
		}
	}
	slices.Sort(joins)
	if !slices.Equal(joins, sorted(m.mirrors)) {
		return fmt.Errorf("mirrors %v, want %v", joins, sorted(m.mirrors))
	}
	var promotable []int
	for _, j := range sorted(m.mirrors) {
		if m.insync(m.mirrors[j]) {
			promotable = append(promotable, m.mirrors[j].node)
		}
	}
	got := m.s.promotable()
	slices.Sort(got)
	slices.Sort(promotable)
	if !slices.Equal(got, promotable) {
		return fmt.Errorf("promotable %v, want the in-sync mirrors %v", got, promotable)
	}
	if len(m.s.ships) != len(m.ships) || len(m.s.held) != len(m.held) {
		return fmt.Errorf("%d ships and %d confirms outstanding, want %d and %d", len(m.s.ships), len(m.s.held), len(m.ships), len(m.held))
	}
	under := 0
	if insync < 1 {
		under = 1
	}
	if m.gauges.lag != len(m.ships) || m.gauges.insync != insync || m.gauges.under != under {
		return fmt.Errorf("census reported lag %d, in-sync %d, under %d; want %d, %d, %d",
			m.gauges.lag, m.gauges.insync, m.gauges.under, len(m.ships), insync, under)
	}
	return nil
}

// kill checks the promotion the dead master's core would make, drops the
// core with the master, and starts a new one.
func (m *msModel) kill() error {
	for _, node := range m.s.promotable() {
		rep := m.replica[node]
		for _, off := range sorted(m.confirmed) {
			if !m.settled[off] && !rep[off] {
				return fmt.Errorf("promotable mirror on node %d lacks confirmed offset %d (its replica holds %d offsets)", node, off, len(rep))
			}
		}
	}
	if len(m.s.promotable()) > 0 {
		m.promotions++
	}
	for _, mm := range m.mirrors {
		if !m.insync(mm) {
			m.halfScanKill++
			break
		}
	}
	var b workBuf
	w := m.s.drop(b.work())
	if len(w.ships) != 0 || len(w.confirms) != 0 {
		return fmt.Errorf("drop issued %d ships and fired %d confirms", len(w.ships), len(w.confirms))
	}
	if m.gauges.lag+w.lag != 0 || m.gauges.insync+w.insync != 0 || m.gauges.under+w.under != 0 {
		return fmt.Errorf("drop left the census at lag %d, in-sync %d, under %d", m.gauges.lag+w.lag, m.gauges.insync+w.insync, m.gauges.under+w.under)
	}
	if join := m.s.join(1); join != 0 {
		return fmt.Errorf("a dropped set took a join")
	}
	m.restart()
	return nil
}

// finish runs the lag clock far past every withheld confirm, which must
// fire them all, and kills the master.
func (m *msModel) finish() error {
	if err := m.step(msOp{kind: msTick, pick: 255}); err != nil {
		return fmt.Errorf("final tick: %w", err)
	}
	if err := m.step(msOp{kind: msTick, pick: 255}); err != nil {
		return fmt.Errorf("final tick: %w", err)
	}
	if len(m.held) != 0 {
		return fmt.Errorf("%d confirms still withheld after the lag window", len(m.held))
	}
	return m.kill()
}

func runMsModel(ops []msOp) (*msModel, error) {
	m := newMsModel()
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return m, fmt.Errorf("op %d (kind %d, pick %d): %w", i, op.kind, op.pick, err)
		}
	}
	return m, m.finish()
}

// msWeights are TestMirrorSetModel's odds for the next step: a steady
// stream of appends and acknowledgements, scans in step with them, and
// now and then a join, a settle, a refused ship, a lag tick, a node loss
// or a master kill.
var msWeights = [numMsOps]int{
	msJoin: 4, msReady: 4, msScan: 24, msQuit: 1, msAppend: 24, msSettle: 6,
	msAck: 30, msNack: 1, msTick: 3, msNodeDown: 2, msKill: 2,
}

func nextMsOp(rng *rand.Rand) msOp {
	total := 0
	for _, n := range msWeights {
		total += n
	}
	n := rng.IntN(total)
	k := msOpKind(0)
	for n >= msWeights[k] {
		n -= msWeights[k]
		k++
	}
	return msOp{kind: k, pick: uint8(rng.Uint32())}
}

// TestMirrorSetModel drives the replication core through seeded schedules
// of joins, resets, catch-up scans, appends in and out of confirm mode,
// settles, acknowledgements and refusals in any order, lag ticks, failed
// establishments, node losses and master kills. Every withheld confirm
// fires exactly once, in the step that makes it due; a mirror whose ships
// issued up to its scan's end are acknowledged is in-sync, whatever is
// outstanding after them; and at every kill each promotable mirror's
// replica holds every offset the master confirmed and has not settled.
// That holds after the lag clock released confirms too, which the model
// counts: the mirror it releases a confirm from is evicted, or in-sync
// again only once it has acknowledged that confirm's ship.
func TestMirrorSetModel(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	var lagReleases, letOff, wedged, promotions, halfScanKills int
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x6d6972726f72))
		ops := make([]msOp, 100+rng.IntN(400))
		for i := range ops {
			ops[i] = nextMsOp(rng)
		}
		m, err := runMsModel(ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lagReleases += m.lagReleases
		letOff += m.letOff
		wedged += m.wedged
		promotions += m.promotions
		halfScanKills += m.halfScanKill
	}
	if lagReleases == 0 || letOff == 0 || wedged == 0 || promotions == 0 || halfScanKills == 0 {
		t.Fatalf("schedules reached %d lag releases, %d let-offs, %d wedged evictions, %d promotions and %d kills beside a half-scanned mirror; want each",
			lagReleases, letOff, wedged, promotions, halfScanKills)
	}
	t.Logf("%d confirms released by the lag clock (%d mirrors let off, %d evicted as wedged), %d promotions, %d kills beside a half-scanned mirror",
		lagReleases, letOff, wedged, promotions, halfScanKills)
}

// FuzzMirrorSet checks the core against the same reference on arbitrary
// schedules, two bytes per step: the kind, then the pick. Its seed
// schedules are under testdata/fuzz/FuzzMirrorSet.
func FuzzMirrorSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []msOp
		for ; len(data) >= 2; data = data[2:] {
			ops = append(ops, msOp{kind: msOpKind(data[0] % byte(numMsOps)), pick: data[1]})
		}
		if _, err := runMsModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}
