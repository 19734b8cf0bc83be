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
// the in-sync mirror set has appended; a mirror that lags past the
// bounded catch-up window is evicted from the in-sync set so confirms
// always resolve. A joining (or rejoining) mirror is wiped and caught up
// from a scan of the master's log while live ships flow concurrently,
// then turns in-sync once the stream drains. See replication.go.
//
// Failover: Kill hard-crashes a node and retires it from the ring. Every
// queue it mastered is reassigned: a replicated queue promotes its
// most-advanced in-sync mirror — the standby log is already on the new
// master's disk, so no segment-log directory moves — and the promoted
// master re-establishes mirrors on the survivors. Unreplicated durable
// queues fall back to the legacy path: reassigned to a surviving ring
// owner, segment-log directory moved there (the shared-storage model of
// a rescheduled pod) and replayed; transient queues restart empty.
// Clients ride the failover through amqp.Config.Reconnect: dead-address
// dials rotate through Config.Seeds, a survivor redirects mis-routed
// consumers to the new master, and channel state plus unconfirmed
// publishes replay on arrival. Restart re-registers the node with the
// ring and runs a rebalance-on-join audit: quiescent unreplicated queues
// whose ring placement points at the rejoined node move back to it, and
// replicated queues re-establish it as a catching-up mirror wherever
// placement wants one. Moved (pinned) masters otherwise stay put — no
// blanket failback.
//
// A Shovel component moves messages between queues on different nodes (the
// RabbitMQ shovel plugin equivalent), which the Deleria example uses to link
// its forward buffer and event builder.
package cluster

import (
	"fmt"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/transport"
)

// defaultVHost is the vhost the placement-only APIs (OwnerOf, AddrFor)
// consult; the pattern engine and the example deployments run on it.
const defaultVHost = "/"

// Options selects the cluster's data-plane behaviour.
type Options struct {
	// Federation installs the cluster hook on every node: remote declares
	// are ensured on their master, default-exchange publishes to remote
	// queues are forwarded (confirm-bridged, zero-copy), and consumes on
	// the wrong node redirect the client to the master. Off, the nodes
	// are independent brokers that only share deterministic placement —
	// the legacy behaviour explicit-placement callers (Shovel tests, the
	// Deleria example) rely on.
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

// Start launches n broker nodes with the shared configuration. Each node
// gets its own listener; cfg.Addr must be empty or a ":0" pattern.
func Start(n int, cfg broker.Config) (*Cluster, error) {
	return StartWith(n, func(int) broker.Config { return cfg })
}

// StartWith launches n broker nodes, asking configFor for each node's
// configuration — used to give every node its own emulated DSN link.
// When a node's config sets DataDir, the cluster appends a node-<i>
// subdirectory so nodes sharing a base directory never collide, and a
// restarted node recovers exactly its own durable state.
func StartWith(n int, configFor func(i int) broker.Config) (*Cluster, error) {
	return StartWithOptions(n, Options{}, configFor)
}

// StartWithOptions is StartWith with explicit cluster options (see
// Options.Federation for what the hook changes).
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
				c.repls[i] = newReplManager(c, i, factor, c.hubs[i])
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
// replicated queue promotes its most-advanced in-sync mirror: the
// standby segment log already sits on the promoted node's own disk, so
// the failover reads nothing from the dead node's directory — no
// segment-log relocation — and the promoted master re-establishes
// mirrors on the survivors. Unreplicated durable queues take the legacy
// path: reassigned to a surviving ring owner, segment-log directory
// carried over (shared-storage failover: the rescheduled pod mounts the
// same volume) and replayed there; transient queues restart empty.
// It returns the reassigned queues with Node set to each new master.
// Clients follow via their reconnect policy: dials to the dead address
// rotate through Config.Seeds, and the first survivor they reach
// redirects mis-routed consumers to the new master.
func (c *Cluster) Kill(i int) ([]QueueInfo, error) {
	c.Node(i).Crash()
	c.mu.Lock()
	deadDir := c.cfgs[i].DataDir
	deadHub := c.hubs[i]
	deadRepl := c.repls[i]
	deadStore := c.stores[i]
	repls := append([]*replManager(nil), c.repls...)
	c.mu.Unlock()
	if deadStore != nil {
		deadStore.crash()
	}
	// The dead master's in-process replication state outlives its broker:
	// it is exactly the in-sync census the promotion chooser needs.
	promoted := make(map[string]bool)
	var choose func(QueueInfo) (int, bool)
	if deadRepl != nil {
		choose = func(q QueueInfo) (int, bool) {
			if !q.Durable {
				return 0, false
			}
			node, ok := deadRepl.choosePromotion(q)
			if ok {
				promoted[qkey(q.VHost, q.Name)] = true
			}
			return node, ok
		}
	}
	moved := c.dir.NodeDownWith(i, choose)
	var first error
	var live []QueueInfo // promoted replicas that are queues now
	for _, q := range moved {
		if promoted[qkey(q.VHost, q.Name)] {
			if err := c.promoteMirror(q); err != nil {
				if first == nil {
					first = err
				}
			} else {
				live = append(live, q)
			}
			continue
		}
		if q.Durable && deadDir != "" {
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
	// route to no queue.
	for _, q := range moved {
		c.dir.Repin(q.VHost, q.Name, q.Node)
	}
	for _, q := range live {
		c.mu.Lock()
		rm := c.repls[q.Node]
		c.mu.Unlock()
		if rm != nil {
			rm.queueRegistered(q.VHost, q.Name, true)
		}
	}
	// Surviving masters drop the dead node from their mirror sets
	// (releasing any confirms it owed); the dead node's own replication
	// state and links are discarded.
	for j, rm := range repls {
		if rm == nil {
			continue
		}
		if j == i {
			rm.reset()
		} else {
			rm.nodeDown(i)
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

// Shovel continuously moves messages from a source queue to a destination
// queue, acknowledging each message only after it has been republished —
// the at-least-once contract of the RabbitMQ shovel plugin.
type Shovel struct {
	srcConn *amqp.Connection
	dstConn *amqp.Connection
	done    chan struct{}
	stopped chan struct{}
	moved   chan int64
}

// ShovelConfig names the endpoints and queues to bridge.
type ShovelConfig struct {
	SourceURL  string
	SourceQ    string
	DestURL    string
	DestQ      string
	Prefetch   int // source prefetch; default 32
	DialSource func(network, addr string) (net.Conn, error)
	DialDest   func(network, addr string) (net.Conn, error)
	// Reconnect, when non-nil, arms both shovel connections with
	// auto-reconnect and switches the destination channel to confirm
	// mode with settle-after-confirm: a message is acknowledged at the
	// source only once the destination broker confirms the republish.
	// This is what lets a shovel ride out a source- or destination-node
	// crash without duplicating already-settled messages — settled means
	// confirmed at the destination and fsynced at the source.
	Reconnect *amqp.ReconnectPolicy
}

// NewShovel starts a shovel. Both queues must already exist.
func NewShovel(cfg ShovelConfig) (*Shovel, error) {
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = 32
	}
	srcConn, err := amqp.DialConfig(cfg.SourceURL, amqp.Config{Dial: cfg.DialSource, Reconnect: cfg.Reconnect})
	if err != nil {
		return nil, fmt.Errorf("cluster: shovel source dial: %w", err)
	}
	dstConn, err := amqp.DialConfig(cfg.DestURL, amqp.Config{Dial: cfg.DialDest, Reconnect: cfg.Reconnect})
	if err != nil {
		srcConn.Close()
		return nil, fmt.Errorf("cluster: shovel dest dial: %w", err)
	}
	srcCh, err := srcConn.Channel()
	if err != nil {
		srcConn.Close()
		dstConn.Close()
		return nil, err
	}
	if err := srcCh.Qos(cfg.Prefetch, 0, false); err != nil {
		srcConn.Close()
		dstConn.Close()
		return nil, err
	}
	deliveries, err := srcCh.Consume(cfg.SourceQ, "shovel", false, false, false, false, nil)
	if err != nil {
		srcConn.Close()
		dstConn.Close()
		return nil, err
	}
	dstCh, err := dstConn.Channel()
	if err != nil {
		srcConn.Close()
		dstConn.Close()
		return nil, err
	}
	var confirms chan amqp.Confirmation
	if cfg.Reconnect != nil {
		if err := dstCh.Confirm(false); err != nil {
			srcConn.Close()
			dstConn.Close()
			return nil, err
		}
		confirms = dstCh.NotifyPublish(make(chan amqp.Confirmation, cfg.Prefetch))
	}

	s := &Shovel{
		srcConn: srcConn,
		dstConn: dstConn,
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		moved:   make(chan int64, 1),
	}
	go s.run(deliveries, dstCh, cfg.DestQ, confirms)
	return s, nil
}

func (s *Shovel) run(deliveries <-chan amqp.Delivery, dstCh *amqp.Channel, destQ string, confirms chan amqp.Confirmation) {
	defer close(s.stopped)
	var moved int64
	for {
		select {
		case <-s.done:
			return
		case d, ok := <-deliveries:
			if !ok {
				return
			}
			err := dstCh.Publish("", destQ, false, false, amqp.Publishing{
				ContentType:   d.ContentType,
				Headers:       d.Headers,
				CorrelationID: d.CorrelationID,
				ReplyTo:       d.ReplyTo,
				MessageID:     d.MessageID,
				Timestamp:     d.Timestamp,
				AppID:         d.AppID,
				Body:          d.Body,
			})
			if err != nil {
				d.Nack(false, true)
				if confirms == nil {
					return
				}
				continue // reconnecting shovel: the requeued message redelivers
			}
			if confirms != nil {
				// Settle-after-confirm: publishes are sequential, so the
				// next confirmation is this publish's verdict (replayed
				// publishes keep their tags through the reconnect
				// machinery). A nack or closed channel leaves the source
				// delivery unacked — redelivered after reconnect.
				conf, open := <-confirms
				if !open {
					return
				}
				if !conf.Ack {
					d.Nack(false, true)
					continue
				}
			}
			// Without confirms the shovel is at-most-once either way: this
			// ack follows a publish the destination socket had at best
			// accepted. A small publish now waits in the destination
			// connection's send buffer, so the ack can also overtake one
			// that is not written yet — the same loss on a crash between
			// the two, in one more place. The confirm-mode shovel waits
			// for the broker's verdict above and is unaffected.
			d.Ack(false)
			moved++
			select {
			case <-s.moved:
			default:
			}
			s.moved <- moved
		}
	}
}

// Moved reports how many messages the shovel has transferred so far.
func (s *Shovel) Moved() int64 {
	select {
	case n := <-s.moved:
		s.moved <- n
		return n
	default:
		return 0
	}
}

// Stop terminates the shovel and closes its connections.
func (s *Shovel) Stop() {
	close(s.done)
	s.srcConn.Close()
	s.dstConn.Close()
	select {
	case <-s.stopped:
	case <-time.After(2 * time.Second):
	}
}
