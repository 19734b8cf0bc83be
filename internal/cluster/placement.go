package cluster

import (
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVNodes is the number of virtual nodes each broker node projects
// onto the placement ring. 64 points per node keeps the per-node queue
// share within a few percent of even for the cluster sizes the scenarios
// run (2–8 nodes) while keeping ring rebuilds trivially cheap.
const defaultVNodes = 64

// ringPoint is one virtual node: a hash position on the ring and the
// physical node it maps to.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is a consistent-hash placement ring. Each member node contributes
// a fixed set of virtual points; a queue's master is the owner of the
// first point at or after the queue name's hash. Placement is therefore
// deterministic for a given member set — two processes that add the same
// nodes compute identical ownership, which is what lets every cluster
// node (and the pattern engine's co-location helpers) answer "who masters
// queue q" without a coordination round.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []ringPoint
	members map[int]bool
}

// NewRing creates an empty ring with the given virtual-node count per
// member (0 means defaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[int]bool)}
}

func vnodeHash(node, replica int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	n := putUvarint(buf[:0], uint64(node))
	n = append(n, '/')
	n = putUvarint(n, uint64(replica))
	h.Write(n)
	return mix64(h.Sum64())
}

// putUvarint appends a minimal varint encoding of v; the exact encoding
// only needs to be stable and injective per (node, replica).
func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-64a of short inputs (vnode
// labels, "ws-q-3"-style queue names) leaves the high bits barely
// avalanched, which bunches ring points into narrow bands and defeats
// the whole placement scheme; the finalizer spreads both point and key
// hashes uniformly over the 64-bit ring.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add joins node to the ring. Adding a current member is a no-op, so
// re-registration after a restart is idempotent.
func (r *Ring) Add(node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[node] {
		return
	}
	r.members[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove retires node from the ring; its arc is absorbed by the
// clockwise successors. Removing a non-member is a no-op.
func (r *Ring) Remove(node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[node] {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node mastering key, or ok=false on an empty ring.
func (r *Ring) Owner(key string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return 0, false
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// Owners returns up to n distinct nodes for key, walking the ring
// clockwise from the key's hash position — the replica placement walk.
// The first element is the master (identical to Owner); the rest are the
// successor nodes that host the key's mirrors, in ring order. Fewer than
// n members yields every member. The result is nil on an empty ring.
func (r *Ring) Owners(key string, n int) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for walked := 0; walked < len(r.points) && len(out) < n; walked++ {
		p := r.points[(i+walked)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}

// Members returns the current member set (unordered membership test
// slice, ascending).
func (r *Ring) Members() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Has reports whether node is a current ring member.
func (r *Ring) Has(node int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[node]
}
