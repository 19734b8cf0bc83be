package cluster

import (
	"slices"
	"time"

	"ds2hpc/internal/broker"
)

// mirrorSet is one replicated queue's mirror protocol on its master: the
// mirrors and their states, the ships outstanding to them, the withheld
// producer confirms, each mirror's catch-up frontier and the lag clock.
// It does no I/O, takes no lock and reads no clock: replQueue drives it
// under its mutex and carries out the work each call returns.
//
// A mirror joins; once its replica is wiped it is ready at a frontier:
// appends from then on ship to it live, records below the frontier are the
// catch-up scan's. From the end of the scan it gates new confirms, and once
// the ships issued up to then are acknowledged it is in-sync: its replica
// holds every offset the master confirmed and has not settled, so only an
// in-sync mirror is promotable. A nacked ship evicts its mirror. The lag
// clock lets off a mirror that owes a confirm past replLagWindow (see
// tick); a confirm so released certifies the master's disk alone.
type mirrorSet struct {
	want    int                        // in-sync mirrors the queue should have
	mirrors []mirror                   // in join order
	ships   map[uint64]replShip        // outstanding ships by id
	held    map[uint64]producerConfirm // withheld, by master offset
	lastID  uint64                     // the last ship or join id issued
	insync  int
	under   bool // fewer than want mirrors in-sync
	dropped bool
}

// mirror is the master's view of one mirror.
type mirror struct {
	node     int
	join     uint64 // this establishment's id, from the ship numbering
	ready    bool   // the replica is wiped: live ships flow to it
	frontier uint64 // records below it are the catch-up scan's to ship
	scanned  bool   // the scan is done: the mirror gates new confirms
	scanEnd  uint64 // the last ship id issued when the scan was done
	out      int    // ships outstanding
	pre      int    // ships outstanding that were issued up to scanEnd
	acked    bool   // a ship was acknowledged since the lag clock's last tick
}

func (m *mirror) insync() bool { return m.scanned && m.pre == 0 }

// replShip is one frame to a mirror: the record at off, or a batch of
// settled offsets. A gate ship counts in the withheld confirm of off.
type replShip struct {
	id     uint64
	node   int
	off    uint64
	settle bool
	gate   bool
}

// producerConfirm is where a publish's verdict goes (nil target: not in
// confirm mode). Withheld, it fires once need gating mirrors are done.
type producerConfirm struct {
	target broker.ConfirmTarget
	seq    uint64
	need   int
	at     time.Time
}

// mirrorWork is what a call leaves the shell to do. Calls append to the
// slices passed in, so a caller's stack buffer carries the common case.
type mirrorWork struct {
	ships    []replShip        // to send, in id order
	confirms []producerConfirm // to fire positively
	evicted  int               // mirrors evicted
	insync   int               // change in in-sync mirrors
	lag      int               // change in outstanding ships
	under    int               // change in under-replicated queues
	arm      bool              // confirms are withheld: keep the lag clock running
}

// newMirrorSet starts a queue's set with no mirror, so under-replicated.
func newMirrorSet(want int) mirrorSet {
	return mirrorSet{want: want, under: true, ships: make(map[uint64]replShip), held: make(map[uint64]producerConfirm)}
}

// find returns the index of node's mirror, or with join != 0 of the one
// established under join; -1 for none.
func (s *mirrorSet) find(node int, join uint64) int {
	return slices.IndexFunc(s.mirrors, func(m mirror) bool { return m.join == join || join == 0 && m.node == node })
}

// join claims node for a mirror about to be established and returns the
// id its later calls name it by; 0 when node has one, or the set dropped.
func (s *mirrorSet) join(node int) uint64 {
	if s.dropped || s.find(node, 0) >= 0 {
		return 0
	}
	s.lastID++
	s.mirrors = append(s.mirrors, mirror{node: node, join: s.lastID})
	return s.lastID
}

// ready starts live ships to a joined mirror whose replica is wiped; the
// records below frontier are its scan's. False once it was evicted.
func (s *mirrorSet) ready(join, frontier uint64) bool {
	i := s.find(0, join)
	if i >= 0 {
		s.mirrors[i].ready, s.mirrors[i].frontier = true, frontier
	}
	return i >= 0
}

// catchup issues the scan's ship of the record, or the settle, at off
// below the mirror's frontier; above it the live ships carry both. False
// once the mirror was evicted: the scan stops.
func (s *mirrorSet) catchup(w mirrorWork, join, off uint64, settle bool) (mirrorWork, bool) {
	i := s.find(0, join)
	if i < 0 {
		return w, false
	}
	if off < s.mirrors[i].frontier {
		w = s.issue(w, i, off, settle, false)
	}
	return w, true
}

// scanDone ends a mirror's catch-up scan: it gates confirms from now on,
// and is in-sync once the ships issued so far are acknowledged.
func (s *mirrorSet) scanDone(w mirrorWork, join uint64) mirrorWork {
	i := s.find(0, join)
	if i < 0 {
		return w
	}
	m := &s.mirrors[i]
	m.scanned, m.scanEnd, m.pre = true, s.lastID, m.out
	if m.pre == 0 {
		w = s.count(w, 1)
	}
	return w
}

// leave evicts a mirror, releasing what it owed: node's, when its node
// died, or the one established under join, when that establishment failed.
func (s *mirrorSet) leave(w mirrorWork, node int, join uint64) mirrorWork {
	if i := s.find(node, join); i >= 0 {
		w = s.evict(w, i)
	}
	return w
}

// append ships the record the master appended at off to every ready
// mirror, and withholds c until the gating ones have appended it. With
// none gating, c fires now: the confirm certifies the master's disk.
func (s *mirrorSet) append(w mirrorWork, off uint64, c producerConfirm, now time.Time) mirrorWork {
	need := 0
	for i := range s.mirrors {
		if !s.mirrors[i].ready {
			continue
		}
		gate := c.target != nil && s.mirrors[i].scanned
		w = s.issue(w, i, off, false, gate)
		if gate {
			need++
		}
	}
	switch {
	case need > 0:
		w.arm = len(s.held) == 0
		c.need, c.at = need, now
		s.held[off] = c
	case c.target != nil:
		w.confirms = append(w.confirms, c)
	}
	return w
}

// settle ships a batch of settled offsets to every ready mirror.
func (s *mirrorSet) settle(w mirrorWork) mirrorWork {
	for i := range s.mirrors {
		if s.mirrors[i].ready {
			w = s.issue(w, i, 0, true, false)
		}
	}
	return w
}

// verdict resolves ship id. An ack counts toward the confirm it gates and
// toward its mirror's catch-up; a nack means the replica diverged and
// evicts the mirror. A ship the core no longer holds is ignored.
func (s *mirrorSet) verdict(w mirrorWork, id uint64, ok bool) mirrorWork {
	sh, hit := s.ships[id]
	if !hit {
		return w
	}
	i := s.find(sh.node, 0)
	if !ok {
		return s.evict(w, i)
	}
	delete(s.ships, id)
	w.lag--
	m := &s.mirrors[i]
	m.out--
	m.acked = true
	if m.scanned && id <= m.scanEnd {
		if m.pre--; m.pre == 0 {
			w = s.count(w, 1)
		}
	}
	if sh.gate {
		w = s.release(w, sh.off)
	}
	return w
}

// tick runs the lag clock on every mirror that owes a confirm withheld
// since before now-replLagWindow: one that acknowledged nothing since the
// previous tick is wedged, and evicted; any other is let off.
func (s *mirrorSet) tick(w mirrorWork, now time.Time) mirrorWork {
	cutoff := now.Add(-replLagWindow)
	for _, sh := range s.ships {
		if !sh.gate || !s.held[sh.off].at.Before(cutoff) {
			continue // the range skips ships evict deletes and sees letOff's
		}
		if i := s.find(sh.node, 0); s.mirrors[i].acked {
			w = s.letOff(w, i)
		} else {
			w = s.evict(w, i)
		}
	}
	for i := range s.mirrors {
		s.mirrors[i].acked = false
	}
	w.arm = len(s.held) > 0
	return w
}

// drop retires the set with the broker it served. Withheld confirms are
// dropped, not fired: their producers' channels died with the broker.
func (s *mirrorSet) drop(w mirrorWork) mirrorWork {
	w.lag -= len(s.ships)
	s.dropped, s.mirrors = true, nil
	clear(s.ships)
	clear(s.held)
	return s.count(w, -s.insync)
}

// promotable lists the in-sync mirrors: those the core knows hold every
// offset the master confirmed and has not settled.
func (s *mirrorSet) promotable() []int {
	var nodes []int
	for i := range s.mirrors {
		if s.mirrors[i].insync() {
			nodes = append(nodes, s.mirrors[i].node)
		}
	}
	return nodes
}

// issue numbers one ship to mirror i.
func (s *mirrorSet) issue(w mirrorWork, i int, off uint64, settle, gate bool) mirrorWork {
	s.lastID++
	sh := replShip{id: s.lastID, node: s.mirrors[i].node, off: off, settle: settle, gate: gate}
	s.ships[sh.id] = sh
	s.mirrors[i].out++
	w.lag++
	w.ships = append(w.ships, sh)
	return w
}

// letOff releases the confirms mirror i owes. It keeps its ships and its
// place, but is in-sync only once everything issued so far is
// acknowledged.
func (s *mirrorSet) letOff(w mirrorWork, i int) mirrorWork {
	m := &s.mirrors[i]
	if m.insync() {
		w = s.count(w, -1)
	}
	m.scanEnd, m.pre = s.lastID, m.out
	for id, sh := range s.ships {
		if sh.node == m.node && sh.gate {
			sh.gate = false
			s.ships[id] = sh
			w = s.release(w, sh.off)
		}
	}
	return w
}

// evict lets mirror i off and removes it with its outstanding ships.
func (s *mirrorSet) evict(w mirrorWork, i int) mirrorWork {
	w = s.letOff(w, i)
	node := s.mirrors[i].node
	s.mirrors = slices.Delete(s.mirrors, i, i+1)
	for id, sh := range s.ships {
		if sh.node == node {
			delete(s.ships, id)
			w.lag--
		}
	}
	w.evicted++
	return w
}

// release takes one gating mirror's debt off the confirm withheld for off,
// and fires it when none is left.
func (s *mirrorSet) release(w mirrorWork, off uint64) mirrorWork {
	h := s.held[off]
	if h.need--; h.need > 0 {
		s.held[off] = h
		return w
	}
	delete(s.held, off)
	w.confirms = append(w.confirms, h)
	return w
}

// count moves the in-sync census by d and reports whether the queue
// became, or stopped being, under-replicated.
func (s *mirrorSet) count(w mirrorWork, d int) mirrorWork {
	s.insync += d
	w.insync += d
	if under := !s.dropped && s.insync < s.want; under != s.under {
		s.under = under
		if under {
			w.under++
		} else {
			w.under--
		}
	}
	return w
}
