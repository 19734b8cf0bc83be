// Package cluster assembles multiple broker nodes into the multi-server
// RabbitMQ cluster deployed on the paper's Data Streaming Nodes (RMQS1-3 on
// DSN1-3, §4.2), grown into a clustered data plane.
//
// # Cluster model
//
// Placement: a consistent-hash Ring (64 virtual nodes per member,
// deterministic, topology-versioned) assigns every queue a master node.
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
// Failover: Kill hard-crashes a node and retires it from the ring. A
// replicated queue it mastered promotes a mirror only if one is in-sync,
// its replica holding every offset the master confirmed and has not
// settled. Any other durable queue relocates to a surviving ring owner
// (the shared-storage model of a rescheduled pod); transient queues
// restart empty. Either way the new master mirrors the queue afresh.
// Clients ride the failover through amqp.Config.Reconnect: dead-address
// dials rotate through Config.Seeds, a survivor redirects mis-routed
// consumers to the new master, and channel state plus unconfirmed
// publishes replay on arrival. Restart re-registers the node with the
// ring and runs a rebalance-on-join audit: quiescent unreplicated queues
// whose ring placement points at the rejoined node move back to it, and
// replicated queues re-establish it as a mirror where placement wants
// one. Moved (pinned) masters otherwise stay put — no blanket failback.
package cluster

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
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

// storeOf returns node i's standby replica store (nil on unreplicated
// clusters) without racing Restart's slice writes.
func (c *Cluster) storeOf(i int) *mirrorStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stores[i]
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
			rm.reconcileAll()
		}
	}
	return c, nil
}

// Close stops all nodes and tears down every federation link.
func (c *Cluster) Close() error {
	c.mu.Lock()
	nodes := append([]*broker.Server(nil), c.nodes...)
	hubs := append([]*fedHub(nil), c.hubs...)
	c.mu.Unlock()
	for _, h := range hubs {
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
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

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
// sibling federation links re-establish lazily on the next forward.
// Rejoining triggers a directory-driven ownership audit
// (rebalanceOnJoin): quiescent unreplicated queues whose ring placement
// points at this node move back, and replicated masters re-establish the
// node as a catching-up mirror wherever placement wants one. Queues that
// failed over to other masters are otherwise not failed back. Clients
// with reconnect policies re-attach transparently because the address is
// stable.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	cfg := c.cfgs[i]
	cfg.Addr = c.addrs[i]
	rm := c.repls[i]
	c.mu.Unlock()
	if rm != nil {
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
	c.rebalanceOnJoin(i)
	return nil
}

// rebalanceOnJoin audits queue ownership after node i re-enters the
// ring. Unreplicated registered queues whose ring placement now points
// at the rejoined node — and that are quiescent (empty, no consumers) —
// are surrendered by their current master and re-pinned here: durable
// logs move directories (both nodes are alive, so this is an ordinary
// handover, not failover), transient queues re-declare empty. Busy
// queues stay put; a mid-traffic move would tear consumers down for no
// robustness gain. Replicated queues keep their master and instead
// reconcile mirror placement, which re-establishes the rejoined node as
// a catching-up mirror where the ring wants one.
func (c *Cluster) rebalanceOnJoin(i int) {
	c.mu.Lock()
	repls := append([]*replManager(nil), c.repls...)
	c.mu.Unlock()
	for _, q := range c.dir.Queues() {
		owner, ok := c.dir.Ring().Owner(q.Name)
		if !ok || owner != i || q.Node == i {
			continue
		}
		if rm := repls[q.Node]; rm != nil && rm.replicated(q.VHost, q.Name) {
			continue // mirror reconcile below handles replicated queues
		}
		src := c.nodeOrNil(q.Node)
		if src == nil {
			continue
		}
		vh := src.VHost(q.VHost)
		sq, have := vh.Queue(q.Name)
		if !have || sq.Len() > 0 || sq.ConsumerCount() > 0 {
			continue
		}
		if err := vh.SurrenderQueue(q.Name); err != nil {
			continue
		}
		if q.Durable {
			moved := q
			moved.Node = i
			c.mu.Lock()
			srcDir := c.cfgs[q.Node].DataDir
			c.mu.Unlock()
			if srcDir != "" {
				if err := c.moveQueueLog(srcDir, moved); err != nil {
					continue
				}
			}
		}
		nvh := c.Node(i).VHost(q.VHost)
		if _, err := nvh.DeclareQueue(q.Name, q.Durable, false, false, false, nil); err != nil {
			continue
		}
		c.dir.Repin(q.VHost, q.Name, i)
		if rm := repls[i]; rm != nil {
			rm.queueRegistered(q.VHost, q.Name, q.Durable)
		}
	}
	for j, rm := range repls {
		if rm != nil && j != i {
			rm.reconcileAll()
		}
	}
}

// Kill fails node i: the node is hard-crashed (as Crash), retired from
// the placement ring, and every queue it mastered is reassigned. A
// replicated queue with an in-sync mirror promotes the most advanced one,
// whose standby log already sits on its own disk. Any other durable queue
// relocates to a surviving ring owner: a stale standby replica there is
// discarded, and the dead node's segment-log directory is carried over
// (shared-storage failover) and replayed. Transient queues restart empty.
// It returns the reassigned queues with Node set to each new master.
// Clients follow via their reconnect policy: dials to the dead address
// rotate through Config.Seeds, and the first survivor they reach
// redirects mis-routed consumers to the new master.
func (c *Cluster) Kill(i int) ([]QueueInfo, error) {
	c.mu.Lock()
	deadDir := c.cfgs[i].DataDir
	deadHub := c.hubs[i]
	deadRepl := c.repls[i]
	deadStore := c.stores[i]
	repls := append([]*replManager(nil), c.repls...)
	hubs, deadAddr := append([]*fedHub(nil), c.hubs...), c.addrs[i]
	c.mu.Unlock()
	// Survivors drop their links to the node before it dies, or its death
	// would replay what they carry to whatever listens there next.
	for j, h := range hubs {
		if h != nil && j != i {
			h.closeTo(deadAddr)
		}
	}
	c.Node(i).Crash()
	if deadStore != nil {
		deadStore.crash()
	}
	// The dead master's in-process replication state outlives its broker:
	// its cores know which mirrors are promotable.
	promoted := make(map[string]bool)
	moved := c.dir.NodeDownWith(i, func(q QueueInfo) (int, bool) {
		node, ok := deadRepl.choosePromotion(q)
		promoted[qkey(q.VHost, q.Name)] = ok
		return node, ok
	})
	var first error
	for _, q := range moved {
		if promoted[qkey(q.VHost, q.Name)] {
			if err := c.promoteMirror(q); err != nil && first == nil {
				first = err
			}
			continue
		}
		if q.Durable && deadDir != "" {
			// A standby replica of the queue on the new master is stale;
			// the relocated log takes its directory.
			if st := c.storeOf(q.Node); st != nil {
				if err := st.wipe(q.VHost, q.Name, true); err != nil && first == nil {
					first = err
				}
			}
			if err := c.moveQueueLog(deadDir, q); err != nil && first == nil {
				first = err
			}
		}
		// Re-declare on the new master: with a relocated segment log this
		// replays the queue's durable state (ready + unacked records);
		// without one it starts empty.
		vh := c.Node(q.Node).VHost(q.VHost)
		if _, err := vh.DeclareQueue(q.Name, q.Durable, false, false, false, nil); err != nil && first == nil {
			first = fmt.Errorf("cluster: failover declare %q on node %d: %w", q.Name, q.Node, err)
		}
	}
	// Only now does the directory name the new masters. Pinned any
	// earlier, a consumer re-dialing a new master could be answered 404
	// (the queue not declared there yet) and a publish landing there would
	// route to no queue. Pinned, each new master mirrors its durable
	// queues afresh.
	for _, q := range moved {
		c.dir.Repin(q.VHost, q.Name, q.Node)
		if rm := repls[q.Node]; rm != nil {
			rm.queueRegistered(q.VHost, q.Name, q.Durable)
		}
	}
	// Surviving masters drop the dead node from their mirror sets
	// (releasing any confirms it owed) and re-mirror what it held onto
	// the next live ring owner; the dead node's own replication state and
	// links are discarded.
	for j, rm := range repls {
		if rm == nil {
			continue
		}
		if j == i {
			rm.reset()
		} else {
			rm.nodeDown(i)
			rm.reconcileAll()
		}
	}
	if deadHub != nil {
		deadHub.closeAll()
	}
	return moved, first
}

// promoteMirror flips one replicated queue's standby replica on its
// already-chosen new master (q.Node) into the live queue: the replica
// log closes cleanly, sheds its MIRROR marker, and the declare recovers
// it in place. Once Kill re-pins the queue there, the promoted master
// re-establishes mirrors on the surviving ring members.
func (c *Cluster) promoteMirror(q QueueInfo) error {
	st := c.storeOf(q.Node)
	if st == nil {
		return fmt.Errorf("cluster: promote %q: node %d has no mirror store", q.Name, q.Node)
	}
	if err := st.promote(q.VHost, q.Name); err != nil {
		return err
	}
	vh := c.Node(q.Node).VHost(q.VHost)
	if _, err := vh.DeclareQueue(q.Name, true, false, false, false, nil); err != nil {
		return fmt.Errorf("cluster: promote declare %q on node %d: %w", q.Name, q.Node, err)
	}
	promotions.Inc()
	return nil
}

// moveQueueLog relocates one queue's segment-log directory from the dead
// node's data directory to its new master's. A missing source directory
// is fine — the queue never persisted anything.
func (c *Cluster) moveQueueLog(deadDir string, q QueueInfo) error {
	c.mu.Lock()
	dstDir := c.cfgs[q.Node].DataDir
	c.mu.Unlock()
	if dstDir == "" {
		return nil // new master keeps the queue memory-only
	}
	src := filepath.Join(deadDir, url.QueryEscape(q.VHost), url.QueryEscape(q.Name))
	if _, err := os.Stat(src); os.IsNotExist(err) {
		return nil
	}
	dstVH := filepath.Join(dstDir, url.QueryEscape(q.VHost))
	if err := os.MkdirAll(dstVH, 0o755); err != nil {
		return fmt.Errorf("cluster: failover move %q: %w", q.Name, err)
	}
	dst := filepath.Join(dstVH, url.QueryEscape(q.Name))
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("cluster: failover move %q: %w", q.Name, err)
	}
	return nil
}

// Addrs returns every node's listen address (stable across restarts).
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

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
func (c *Cluster) AddrFor(queue string) string {
	i := c.OwnerOf(queue)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[i]
}
