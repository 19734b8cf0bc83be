package cluster

import (
	"sync"

	"ds2hpc/internal/telemetry"
)

// Cluster-plane telemetry. The probes live in telemetry.Default so
// `-watch` rollups and /snapshot.json surface the federation and
// failover activity of a run alongside the broker and client counters.
var (
	fedMsgs          = telemetry.Default.Counter("cluster.federation_msgs")
	fedBytes         = telemetry.Default.Counter("cluster.federation_bytes")
	fedLinks         = telemetry.Default.Gauge("cluster.federation_links")
	brokerRedirects  = telemetry.Default.Counter("cluster.redirects")
	ownershipChanges = telemetry.Default.Counter("cluster.ownership_changes")
)

// QueueInfo describes one queue the directory tracks: where it is
// mastered and whether it has a durable segment log to move on failover.
type QueueInfo struct {
	VHost   string
	Name    string
	Durable bool
	Node    int
}

// Directory is the cluster's metadata directory: the placement ring plus
// the queue registry and per-node addresses. Any node holds a reference
// and can therefore answer "who masters queue q" locally — the lookup a
// client connected to the wrong node triggers, and the one the federation
// layer uses to route forwarded publishes.
//
// Registered queues are pinned to the node that mastered them at
// declaration time. The ring only decides placement for queues the
// directory has not seen; this is what makes failover sticky — when a
// dead node's queues are reassigned, a later restart of that node does
// not fail the queues back.
type Directory struct {
	mu     sync.RWMutex
	ring   *Ring
	addrs  []string
	queues map[string]*QueueInfo // key: vhost+"\x00"+name
}

// NewDirectory creates a directory for an n-node cluster; all nodes
// start as ring members. Addresses are filled in via SetAddr as nodes
// begin listening.
func NewDirectory(n, vnodes int) *Directory {
	d := &Directory{
		ring:   NewRing(vnodes),
		addrs:  make([]string, n),
		queues: make(map[string]*QueueInfo),
	}
	for i := 0; i < n; i++ {
		d.ring.Add(i)
	}
	return d
}

func qkey(vhost, name string) string { return vhost + "\x00" + name }

// SetAddr records node i's listen address.
func (d *Directory) SetAddr(i int, addr string) {
	d.mu.Lock()
	d.addrs[i] = addr
	d.mu.Unlock()
}

// Addr returns node i's listen address ("" until it has listened).
func (d *Directory) Addr(i int) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if i < 0 || i >= len(d.addrs) {
		return ""
	}
	return d.addrs[i]
}

// Ring exposes the placement ring (for topology-version checks).
func (d *Directory) Ring() *Ring { return d.ring }

// Owner answers the master node for a queue: the pinned assignment if
// the queue is registered, the ring owner otherwise.
func (d *Directory) Owner(vhost, name string) int {
	d.mu.RLock()
	if q, ok := d.queues[qkey(vhost, name)]; ok {
		node := q.Node
		d.mu.RUnlock()
		return node
	}
	d.mu.RUnlock()
	if n, ok := d.ring.Owner(name); ok {
		return n
	}
	return 0
}

// Register pins a queue to a master node (idempotent; re-registering
// updates durability, which upgrades when a transient declare is
// repeated as durable on recovery).
func (d *Directory) Register(vhost, name string, durable bool, node int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := qkey(vhost, name)
	if q, ok := d.queues[k]; ok {
		q.Durable = durable
		q.Node = node
		return
	}
	d.queues[k] = &QueueInfo{VHost: vhost, Name: name, Durable: durable, Node: node}
}

// Queues returns a snapshot of every registered queue.
func (d *Directory) Queues() []QueueInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]QueueInfo, 0, len(d.queues))
	for _, q := range d.queues {
		out = append(out, *q)
	}
	return out
}

// MasterCount returns how many registered queues node i masters.
func (d *Directory) MasterCount(i int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, q := range d.queues {
		if q.Node == i {
			n++
		}
	}
	return n
}

// Busiest returns the ring member mastering the most registered queues
// (lowest index wins ties) — the node a queue-master kill script targets.
func (d *Directory) Busiest() (int, bool) {
	members := d.ring.Members()
	if len(members) == 0 {
		return 0, false
	}
	best, bestCount := -1, -1
	for _, m := range members {
		c := d.MasterCount(m)
		if c > bestCount {
			best, bestCount = m, c
		}
	}
	return best, best >= 0
}

// NodeDownWith retires node i from the ring and picks a new master for
// every queue it mastered: choose may pick one (a replicated queue's
// promotable mirror); returning ok=false falls back to the surviving ring
// owner. It returns those queues with Node set to the new master but
// leaves their pins on node i: the failover driver re-creates each queue
// on its new master and only then re-pins it (Repin), so no client is
// ever sent to a master that lacks its queue.
func (d *Directory) NodeDownWith(i int, choose func(QueueInfo) (int, bool)) []QueueInfo {
	d.ring.Remove(i)
	d.mu.RLock()
	defer d.mu.RUnlock()
	var moved []QueueInfo
	for _, q := range d.queues {
		if q.Node != i {
			continue
		}
		to, ok := choose(*q)
		if !ok {
			to, ok = d.ring.Owner(q.Name)
		}
		if !ok {
			continue // last node down; nowhere to move
		}
		m := *q
		m.Node = to
		moved = append(moved, m)
	}
	return moved
}

// Repin atomically re-pins a registered queue to a new master node —
// the rebalance-on-join path. It is a no-op for unknown queues or when
// the pin already points at node.
func (d *Directory) Repin(vhost, name string, node int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	q, ok := d.queues[qkey(vhost, name)]
	if !ok || q.Node == node {
		return false
	}
	q.Node = node
	ownershipChanges.Inc()
	return true
}

// NodeUp re-registers node i with the ring after a restart. Pinned
// assignments are untouched (no failback); the node only picks up
// queues declared after it rejoined. Idempotent for live members.
func (d *Directory) NodeUp(i int) {
	d.ring.Add(i)
}
