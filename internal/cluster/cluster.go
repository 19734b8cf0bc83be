// Package cluster assembles multiple broker nodes into the multi-server
// RabbitMQ cluster deployed on the paper's Data Streaming Nodes (RMQS1-3 on
// DSN1-3, §4.2), grown into a clustered data plane.
//
// # Cluster model
//
// Placement: a consistent-hash Ring (64 virtual nodes per member,
// deterministic) assigns every queue a master node.
// A shared metadata Directory pins each declared queue to the master
// that owned it at declare time and records every node's address, so
// any node answers "who masters queue q" locally.
//
// Federation: with Options.Federation, every node carries a ClusterHook
// (broker.Config.Cluster). Declares for remotely-mastered queues are
// ensured on the master over a federation link and answered locally;
// default-exchange publishes for remote queues are forwarded over the
// link zero-copy (the refcounted pooled body rides the vectored write as
// a borrowed iovec) and confirm-bridged (the producer's ack waits for
// the master's verdict); consumes and gets answer with a
// connection-level redirect (connection.close 302 carrying the master's
// address) that reconnect-enabled clients honor by re-dialing.
//
// Replication: with Options.ReplicationFactor R >= 2, every durable
// queue gets R-1 synchronous mirrors on the distinct ring nodes that
// follow its master in the placement walk. The master streams appends
// and settles to each mirror over the same confirm-mode federation links
// (reserved "!mirror.*" exchanges) and withholds producer confirms until
// the mirrors that gate them have appended. See replication.go.
//
// Failover: one planner decides and one executor acts (plan.go). Kill
// hard-crashes a node, retires it from the ring and carries out
// planFailover: a replicated queue it mastered promotes a mirror only if
// one is in-sync, its replica holding every offset the master confirmed
// and has not settled. Any other durable queue relocates to a surviving
// ring owner (the shared-storage model of a rescheduled pod); transient
// queues restart empty. Either way the new master mirrors the queue
// afresh, and the survivors re-mirror what the dead node held. Clients
// ride the failover through amqp.Config.Reconnect: dead-address dials
// rotate through Config.Seeds, a survivor redirects mis-routed consumers
// to the new master, and channel state plus unconfirmed publishes replay
// on arrival. Restart re-registers the node with the ring and carries out
// planJoin: quiescent unreplicated queues whose ring placement points at
// the rejoined node move back to it, and replicated queues re-establish
// it as a mirror where placement wants one. Moved (pinned) masters
// otherwise stay put — no blanket failback.
package cluster

import (
	"cmp"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/transport"
)

// defaultVHost is the vhost the placement-only APIs (OwnerOf, AddrFor)
// consult; the pattern engine and core.Deploy's deployments run on it.
const defaultVHost = "/"

// Options selects the cluster's data-plane behaviour.
type Options struct {
	// Federation installs the cluster hook on every node: remote declares
	// are ensured on their master, default-exchange publishes to remote
	// queues are forwarded (confirm-bridged, zero-copy), and consumes on
	// the wrong node redirect the client to the master. Off, the nodes
	// are independent brokers that only share deterministic placement,
	// and clients dial each queue's master (AddrFor) themselves: the
	// core.Options default (scenario deployments turn it on).
	Federation bool
	// VNodes overrides the virtual-node count per ring member (0 = 64).
	VNodes int
	// FedDial dials federation links between nodes (nil = plain TCP).
	// Deployments whose brokers listen on TLS (DTS) pass the TLS hop here.
	FedDial transport.DialFunc
	// ReplicationFactor R >= 2 gives every durable queue R-1 synchronous
	// mirrors (capped at the node count) and switches Kill to in-sync
	// mirror promotion for replicated queues. Requires Federation and
	// per-node DataDirs; 0 or 1 means unreplicated (the default).
	ReplicationFactor int
}

// Cluster is a set of broker nodes with deterministic ring-based queue
// placement and a shared metadata directory. Individual nodes can be
// hard-killed (Crash) and brought back (Restart) on the same address and
// data directory, modeling a broker pod dying and being rescheduled; Kill
// additionally fails the node's queues over to the surviving masters.
//
// Only nodes changes once StartWithOptions returns (Restart replaces a
// node's server), so only nodes is read under mu.
type Cluster struct {
	mu    sync.Mutex
	nodes []*broker.Server
	cfgs  []broker.Config // resolved per-node configs, reused by Restart
	addrs []string        // bound addresses, stable across restarts

	dir    *Directory
	hubs   []*fedHub      // per-node federation hubs (nil entries without federation)
	stores []*mirrorStore // per-node standby replica stores (nil without replication)
	repls  []*replManager // per-node master-side replication state (nil without replication)
}

// nodeOrNil is Node for callers that may run while the cluster is still
// starting (durable recovery fires cluster hooks before every node is
// appended) — nil instead of a panic for a not-yet-started node.
func (c *Cluster) nodeOrNil(i int) *broker.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i]
}

// StartWithOptions launches n broker nodes under the cluster options
// (see Options.Federation for what the hook changes), asking configFor
// for each node's configuration — used to give every node its own
// emulated DSN link. Each node gets its own listener; a config's Addr
// must be empty or a ":0" pattern. When a node's config sets DataDir,
// the cluster appends a node-<i> subdirectory so nodes sharing a base
// directory never collide, and a restarted node recovers exactly its
// own durable state.
func StartWithOptions(n int, opts Options, configFor func(i int) broker.Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	c := &Cluster{
		dir:    NewDirectory(n, opts.VNodes),
		hubs:   make([]*fedHub, n),
		stores: make([]*mirrorStore, n),
		repls:  make([]*replManager, n),
	}
	factor := opts.ReplicationFactor
	if factor > n {
		factor = n
	}
	for i := 0; i < n; i++ {
		nodeCfg := configFor(i)
		if nodeCfg.Addr == "" {
			nodeCfg.Addr = "127.0.0.1:0"
		}
		if nodeCfg.DataDir != "" {
			nodeCfg.DataDir = filepath.Join(nodeCfg.DataDir, fmt.Sprintf("node-%d", i))
		}
		if opts.Federation {
			c.hubs[i] = newFedHub(i, c.dir, opts.FedDial)
			hook := &nodeHook{node: i, dir: c.dir, hub: c.hubs[i]}
			if factor >= 2 && nodeCfg.DataDir != "" {
				c.stores[i] = newMirrorStore(nodeCfg.DataDir, nodeCfg.Durability)
				c.repls[i] = &replManager{c: c, node: i, factor: factor, hub: c.hubs[i], queues: make(map[string]*replQueue)}
				hook.store = c.stores[i]
				hook.repl = c.repls[i]
			}
			nodeCfg.Cluster = hook
		}
		s, err := broker.Listen(nodeCfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, s)
		c.cfgs = append(c.cfgs, nodeCfg)
		c.addrs = append(c.addrs, s.Addr())
		c.dir.SetAddr(i, s.Addr())
	}
	// Queues recovered during startup registered before their mirror
	// nodes had addresses; reconcile now that every node listens.
	for _, rm := range c.repls {
		if rm != nil {
			rm.remirror(-1)
		}
	}
	return c, nil
}

// Close stops all nodes and tears down every federation link.
func (c *Cluster) Close() error {
	c.mu.Lock()
	nodes := append([]*broker.Server(nil), c.nodes...)
	c.mu.Unlock()
	for _, h := range c.hubs {
		if h != nil {
			h.closeAll()
		}
	}
	var first error
	for _, s := range nodes {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Size reports the number of nodes.
func (c *Cluster) Size() int { return len(c.addrs) }

// Node returns node i.
func (c *Cluster) Node(i int) *broker.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Crash hard-kills node i as SIGKILL would: connections drop without
// protocol teardown and only fsynced durable state survives on disk.
// The node's address stays reserved for a later Restart.
func (c *Cluster) Crash(i int) {
	c.Node(i).Crash()
}

// Restart brings a crashed (or closed) node back on its original address
// with its original configuration, recovering whatever durable state its
// data directory holds, and re-registers it with the placement ring and
// metadata directory: the node resumes answering for the durable queues
// it recovered, rejoins placement for queues declared from now on, and
// sibling federation links re-establish lazily on the next forward. It
// then carries out planJoin: quiescent unreplicated queues the ring places
// on this node again move back, and replicated masters re-establish the
// node as a catching-up mirror wherever placement wants one. Queues that
// failed over to other masters are otherwise not failed back. Clients
// with reconnect policies re-attach transparently because the address is
// stable.
func (c *Cluster) Restart(i int) error {
	cfg := c.cfgs[i]
	cfg.Addr = c.addrs[i]
	if rm := c.repls[i]; rm != nil {
		// The in-process manager outlived the crashed broker; its mirror
		// census is stale now. Recovery below re-registers what this node
		// still masters.
		rm.reset()
	}
	s, err := broker.Listen(cfg)
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	c.mu.Lock()
	c.nodes[i] = s
	c.mu.Unlock()
	c.dir.SetAddr(i, s.Addr())
	c.dir.NodeUp(i)
	return c.run(planJoin(c.view(i, true)))
}

// Kill fails node i: the node is hard-crashed (as Crash), retired from
// the placement ring, and every queue it mastered is reassigned as
// planFailover decides: an in-sync mirror is promoted, any other queue
// relocates to a surviving ring owner. It returns the reassigned queues
// with Node set to each new master. Clients follow via their reconnect
// policy: dials to the dead address rotate through Config.Seeds, and the
// first survivor they reach redirects mis-routed consumers to the new
// master.
func (c *Cluster) Kill(i int) ([]QueueInfo, error) {
	// Survivors drop their links to the node before it dies, or its death
	// would replay what they carry to whatever listens there next.
	for j, h := range c.hubs {
		if h != nil && j != i {
			h.closeTo(c.addrs[i])
		}
	}
	c.Node(i).Crash()
	if c.stores[i] != nil {
		c.stores[i].crash()
	}
	c.dir.Ring().Remove(i)
	// The dead master's replication cores outlive its broker: the plan
	// reads which mirrors they call in-sync before they are dropped.
	plan := planFailover(c.view(i, false))
	err := c.run(plan)
	if c.repls[i] != nil {
		c.repls[i].reset()
	}
	if c.hubs[i] != nil {
		c.hubs[i].closeAll()
	}
	var moved []QueueInfo
	for _, a := range plan {
		if a.kind == actRepin {
			moved = append(moved, a.q)
		}
	}
	return moved, err
}

// view snapshots what a plan reads once node has left the ring (join
// false) or rejoined it: the directory's queues, the ring's placement, the
// dead master's in-sync mirrors with their frontiers (its replication
// cores outlive its broker), and for a join whether each queue the ring
// places on node is replicated or quiescent on its master.
func (c *Cluster) view(node int, join bool) view {
	ring, stores, repls := c.dir.Ring(), c.stores, c.repls
	v := view{node: node, nodes: make([]nodeView, len(c.cfgs))}
	for j := range v.nodes {
		v.nodes[j] = nodeView{dataDir: c.cfgs[j].DataDir != "", standby: stores[j] != nil && ring.Has(j), replicates: stores[j] != nil}
	}
	for _, q := range c.dir.Queues() {
		qv := queueView{QueueInfo: q, owner: -1}
		if o, ok := ring.Owner(q.Name); ok {
			qv.owner = o
		}
		switch {
		case !join && q.Node == node:
			if rq := repls[node].get(q.VHost, q.Name); rq != nil {
				rq.mu.Lock()
				nodes := rq.set.promotable()
				rq.mu.Unlock()
				for _, n := range nodes {
					r := replica{node: n}
					if stores[n] != nil {
						r.next = stores[n].nextOffset(q.VHost, q.Name)
					}
					qv.insync = append(qv.insync, r)
				}
			}
		case join && qv.owner == node && q.Node != node:
			qv.replicated = repls[q.Node].replicated(q.VHost, q.Name)
			if src := c.nodeOrNil(q.Node); src != nil {
				sq, ok := src.VHost(q.VHost).Queue(q.Name)
				qv.quiescent = ok && sq.Len() == 0 && sq.ConsumerCount() == 0
			}
		}
		v.queues = append(v.queues, qv)
	}
	slices.SortFunc(v.queues, func(a, b queueView) int {
		return cmp.Or(cmp.Compare(a.VHost, b.VHost), cmp.Compare(a.Name, b.Name))
	})
	return v
}

// run carries out a plan in order and returns its first error. A queue
// whose action fails takes no further action, so it is never pinned on a
// master that did not declare it.
func (c *Cluster) run(plan []action) error {
	var first error
	failed := make(map[string]bool)
	for _, a := range plan {
		k := qkey(a.q.VHost, a.q.Name)
		if failed[k] {
			continue
		}
		if err := c.act(a); err != nil {
			failed[k] = true
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// act carries out one action of a plan.
func (c *Cluster) act(a action) error {
	q := a.q
	st, rm := c.stores[q.Node], c.repls[q.Node]
	switch a.kind {
	case actSurrender:
		return c.Node(a.from).VHost(q.VHost).SurrenderQueue(q.Name)
	case actRepin:
		c.dir.Repin(q.VHost, q.Name, q.Node)
		if rm != nil {
			rm.queueRegistered(q.VHost, q.Name, q.Durable)
		}
		return nil
	case actRemirror:
		rm.remirror(a.from)
		return nil
	case actPromote:
		// The replica log closes cleanly and sheds its MIRROR marker.
		if st == nil {
			return fmt.Errorf("cluster: promote %q: node %d has no mirror store", q.Name, q.Node)
		}
		if err := st.promote(q.VHost, q.Name); err != nil {
			return err
		}
		promotions.Inc()
	case actRelocate:
		if a.wipe {
			if err := st.wipe(q.VHost, q.Name, true); err != nil {
				return err
			}
		}
		if a.log {
			if err := c.moveQueueLog(c.cfgs[a.from].DataDir, q); err != nil {
				return err
			}
		}
	}
	// The declare recovers whatever log the queue's directory now holds:
	// a promoted replica, a relocated log, or none.
	if _, err := c.Node(q.Node).VHost(q.VHost).DeclareQueue(q.Name, q.Durable, false, false, false, nil); err != nil {
		return fmt.Errorf("cluster: declare %q on node %d: %w", q.Name, q.Node, err)
	}
	return nil
}

// moveQueueLog relocates one queue's segment-log directory from the data
// directory of the node it leaves to its new master's. A missing source
// directory is fine — the queue never persisted anything.
func (c *Cluster) moveQueueLog(srcDir string, q QueueInfo) error {
	dstDir := c.cfgs[q.Node].DataDir
	if dstDir == "" {
		return nil // new master keeps the queue memory-only
	}
	src := filepath.Join(srcDir, url.QueryEscape(q.VHost), url.QueryEscape(q.Name))
	if _, err := os.Stat(src); os.IsNotExist(err) {
		return nil
	}
	dstVH := filepath.Join(dstDir, url.QueryEscape(q.VHost))
	if err := os.MkdirAll(dstVH, 0o755); err != nil {
		return fmt.Errorf("cluster: move %q: %w", q.Name, err)
	}
	dst := filepath.Join(dstVH, url.QueryEscape(q.Name))
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("cluster: move %q: %w", q.Name, err)
	}
	return nil
}

// Addrs returns every node's listen address (stable across restarts).
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Directory exposes the cluster's metadata directory.
func (c *Cluster) Directory() *Directory { return c.dir }

// OwnerOf returns the index of the node that masters the named queue on
// the default vhost: its pinned directory assignment when declared, the
// placement ring's answer otherwise. Deterministic for a given member
// set, so co-location helpers can predict placement before declaring.
func (c *Cluster) OwnerOf(queue string) int {
	return c.dir.Owner(defaultVHost, queue)
}

// AddrFor returns the listen address of the queue's master node.
func (c *Cluster) AddrFor(queue string) string { return c.addrs[c.OwnerOf(queue)] }
