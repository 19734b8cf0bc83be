package cluster

import (
	"fmt"

	"ds2hpc/internal/broker"
)

// nodeHook is one node's view of the cluster, installed as
// broker.Config.Cluster. It answers placement lookups from the shared
// metadata directory, routes remote declares/publishes through the
// node's federation hub, and — on replicated clusters — bridges the
// broker's replication dispatch points to the node's master-side
// replication manager and standby mirror store (both nil on R=1
// clusters, keeping the unreplicated hot path untouched).
type nodeHook struct {
	node  int
	dir   *Directory
	hub   *fedHub
	repl  *replManager
	store *mirrorStore
}

var _ broker.ClusterHook = (*nodeHook)(nil)

func (h *nodeHook) Lookup(vhost, queue string) (string, bool) {
	owner := h.dir.Owner(vhost, queue)
	if owner == h.node {
		return "", true
	}
	addr := h.dir.Addr(owner)
	if addr == "" {
		// The owner has not listened yet (cluster still starting) or is
		// unknown; serve locally rather than redirect into the void.
		return "", true
	}
	return addr, false
}

func (h *nodeHook) RegisterQueue(vhost, queue string, durable bool) {
	h.dir.Register(vhost, queue, durable, h.node)
	if h.repl != nil {
		h.repl.queueRegistered(vhost, queue, durable)
	}
}

func (h *nodeHook) EnsureRemoteQueue(vhost, queue string, durable bool) error {
	addr, local := h.Lookup(vhost, queue)
	if local {
		return nil // ownership moved to this node between dispatch and now
	}
	l, err := h.hub.link(addr, vhost)
	if err != nil {
		return err
	}
	return l.declare(queue, durable)
}

func (h *nodeHook) ForwardPublish(vhost, queue string, m *broker.Message, target broker.ConfirmTarget, seq uint64) error {
	addr, local := h.Lookup(vhost, queue)
	if local {
		// Ownership moved here mid-flight; the caller's nack makes the
		// producer retry, and the retry routes locally.
		return errOwnershipMoved
	}
	l, err := h.hub.link(addr, vhost)
	if err != nil {
		return err
	}
	return l.forward("", queue, m, target, seq)
}

func (h *nodeHook) NoteRedirect(vhost, queue string) {
	brokerRedirects.Inc()
}

func (h *nodeHook) Replicated(vhost, queue string) bool {
	return h.repl.replicated(vhost, queue)
}

func (h *nodeHook) ReplicateAppend(vhost, queue string, off uint64, m *broker.Message, target broker.ConfirmTarget, seq uint64) {
	h.repl.replicateAppend(vhost, queue, off, m, target, seq)
}

func (h *nodeHook) ReplicateSettle(vhost, queue string, off uint64, offs []uint64) {
	h.repl.replicateSettle(vhost, queue, off, offs)
}

func (h *nodeHook) ApplyMirror(vhost, exchange, key string, m *broker.Message) error {
	if h.store == nil {
		return fmt.Errorf("cluster: node %d carries no mirror store", h.node)
	}
	switch exchange {
	case broker.MirrorDataExchange:
		off, queue, err := parseMirrorKey(key)
		if err != nil {
			return err
		}
		return h.store.applyData(vhost, queue, off, m)
	case broker.MirrorAckExchange:
		return h.store.applyAcks(vhost, key, m.Body)
	case broker.MirrorResetExchange:
		return h.store.reset(vhost, key)
	}
	return fmt.Errorf("cluster: unknown mirror exchange %q", exchange)
}

type ownershipMovedError struct{}

func (ownershipMovedError) Error() string { return "cluster: queue ownership moved" }

var errOwnershipMoved = ownershipMovedError{}
