package cluster

// A node's death or return is decided by one of two pure planners,
// planFailover and planJoin: each maps a snapshot of the cluster (view)
// to an ordered list of actions, and Cluster.run carries them out. The
// planners do no I/O and take no lock, so every rule that decides where a
// queue goes, and so whether a confirmed message survives, is in this
// file, and TestFailoverPlan and TestClusterSim drive it without sockets.

// view is what a plan reads once a node has left or rejoined the ring.
type view struct {
	node   int         // the node that died or rejoined
	queues []queueView // every registered queue, by vhost and name
	nodes  []nodeView
}

// queueView is one registered queue as a plan sees it.
type queueView struct {
	QueueInfo
	owner int // the ring's owner of the queue after the change; -1 on an empty ring
	// insync lists, for a queue of a dead master, the mirrors its
	// replication core calls in-sync, in join order.
	insync []replica
	// For a join, of a queue the ring now places on the joining node: its
	// master replicates it, or it is quiescent (empty, no consumer).
	replicated, quiescent bool
}

// replica is an in-sync mirror and how far its replica has applied.
type replica struct {
	node int
	next uint64
}

// nodeView is what a plan needs to know of one node.
type nodeView struct {
	dataDir    bool // it has a data directory, so its queues' logs can move off it
	standby    bool // a live ring member with a mirror store: a promotion can land on it
	replicates bool // it has a mirror store, and re-mirrors the queues it masters
}

// actionKind is what one step of a plan does.
type actionKind uint8

const (
	actPromote   actionKind = iota // q's standby replica on q.Node becomes the queue
	actSurrender                   // q leaves its live master from, its log kept
	actRelocate                    // wipe q's standby on q.Node, move q's log off from, declare
	actDeclare                     // declare q empty on q.Node
	actRepin                       // pin q on q.Node and register it with q.Node's replication
	actRemirror                    // q.Node's replicated queues drop from's mirrors and re-mirror
)

// action is one step of a plan. q.Node is the queue's new master; for a
// remirror it is the master that re-mirrors.
type action struct {
	kind actionKind
	q    QueueInfo
	from int  // the node the queue leaves, or the mirrors drop; -1 for none
	wipe bool // relocate: q.Node's mirror store may hold a stale standby of q
	log  bool // relocate: from has a data directory to move the log out of
}

// planFailover plans the death of v.node. Each queue it mastered goes to
// its most advanced in-sync mirror that sits on a live standby node, by
// promotion; failing that, a durable queue relocates to its ring owner,
// its log moved off the dead node's disk (the shared-storage model of a
// rescheduled pod), and a transient one is declared there empty. With no
// node left nothing moves. Every queue is created on its new master before
// any is pinned there: pinned earlier, a consumer re-dialing the new
// master would be answered 404 and a publish would route to no queue.
// Last, the survivors drop the dead node from their mirror sets and
// re-mirror onto live ring owners.
func planFailover(v view) []action {
	var plan, repins []action
	for _, q := range v.queues {
		if q.Node != v.node {
			continue
		}
		from := q.Node
		best := -1
		for i, r := range q.insync {
			if v.nodes[r.node].standby && (best < 0 || r.next > q.insync[best].next) {
				best = i
			}
		}
		switch {
		case best >= 0:
			q.Node = q.insync[best].node
			plan = append(plan, action{kind: actPromote, q: q.QueueInfo, from: from})
		case q.owner < 0:
			continue
		default:
			q.Node = q.owner
			plan = append(plan, moveTo(v, q.QueueInfo, from))
		}
		repins = append(repins, action{kind: actRepin, q: q.QueueInfo, from: from})
	}
	return append(append(plan, repins...), remirrors(v, v.node)...)
}

// planJoin plans the return of v.node. A queue the ring places on it
// again moves back when its master does not replicate it and it is
// quiescent: it is surrendered, then relocated or declared as on a
// failover. A busy queue stays, since moving it would tear its consumers
// down for no gain; a replicated one keeps its master, which re-mirrors
// onto the returning node where the ring wants a mirror.
func planJoin(v view) []action {
	var plan, repins []action
	for _, q := range v.queues {
		if q.owner != v.node || q.Node == v.node || q.replicated || !q.quiescent {
			continue
		}
		from := q.Node
		q.Node = v.node
		plan = append(plan, action{kind: actSurrender, q: q.QueueInfo, from: from}, moveTo(v, q.QueueInfo, from))
		repins = append(repins, action{kind: actRepin, q: q.QueueInfo, from: from})
	}
	return append(append(plan, repins...), remirrors(v, -1)...)
}

// moveTo creates q on its new master q.Node: a transient queue empty, a
// durable one by relocation from from. A standby of q there is stale (an
// in-sync one would have been promoted), so the relocation wipes it before
// the log takes its directory.
func moveTo(v view, q QueueInfo, from int) action {
	if !q.Durable {
		return action{kind: actDeclare, q: q, from: from}
	}
	return action{kind: actRelocate, q: q, from: from, wipe: v.nodes[q.Node].replicates, log: v.nodes[from].dataDir}
}

// remirrors has every other replicating master drop dead's mirrors (when
// dead >= 0) and reconcile its mirrors with the ring.
func remirrors(v view, dead int) []action {
	var plan []action
	for j, n := range v.nodes {
		if n.replicates && j != v.node {
			plan = append(plan, action{kind: actRemirror, q: QueueInfo{Node: j}, from: dead})
		}
	}
	return plan
}
