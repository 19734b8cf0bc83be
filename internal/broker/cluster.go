package broker

// Cluster integration. A broker node participates in a clustered data
// plane through a ClusterHook the owner installs in Config.Cluster. The
// broker stays cluster-agnostic: it only asks the hook three questions —
// who masters a queue, how to get a declare to the master, and how to
// forward a publish there — and reports the queues it masters back. The
// hook implementation (placement ring, metadata directory, federation
// links) lives in internal/cluster.
//
// Routing policy at the dispatch points:
//
//   - queue.declare for a remotely-mastered queue is ensured on the
//     master over the federation link and answered locally, so declares
//     are location-transparent.
//   - basic.consume / basic.get for a remotely-mastered queue answer
//     with a connection-level redirect (connection.close 302, reply-text
//     carrying the master's address): consumers must sit on the master
//     to get zero-copy deliveries, so the client re-dials rather than
//     the broker proxying a delivery stream.
//   - basic.publish to the default exchange whose routing key is a
//     remotely-mastered queue is forwarded over the federation link,
//     confirm-bridged: the producer's ack is withheld until the master
//     confirms. Publishes through named exchanges route locally —
//     bindings are node-local state.
type ClusterHook interface {
	// Lookup answers the master for a queue: its client-facing address
	// and whether this node is the master. Unregistered queues resolve
	// through the placement ring.
	Lookup(vhost, queue string) (addr string, local bool)
	// RegisterQueue records that this node masters the queue.
	RegisterQueue(vhost, queue string, durable bool)
	// EnsureRemoteQueue declares the queue on its (remote) master and
	// waits for the declare-ok.
	EnsureRemoteQueue(vhost, queue string, durable bool) error
	// ForwardPublish forwards a default-exchange publish to the queue's
	// master. The callee takes its own reference on m for the duration
	// of the forward (the caller's reference only covers the call). When
	// target is non-nil the forward is confirm-bridged: the master's
	// ack/nack for this message is relayed via target.ClusterConfirm with
	// the caller's seq. A non-nil error means the forward could not even
	// be attempted (no link and the master is unreachable).
	ForwardPublish(vhost, queue string, m *Message, target ConfirmTarget, seq uint64) error
	// NoteRedirect records that this node answered an operation on the
	// queue with a connection-level redirect (telemetry only).
	NoteRedirect(vhost, queue string)
	// Replicated reports whether this node masters the queue as a
	// replicated queue — whether a local publish must go through
	// ReplicateAppend, which withholds its confirm while mirrors gate it.
	// Implementations keep this an atomic fast path: on an R=1 cluster it
	// must cost nothing on the per-publish hot path.
	Replicated(vhost, queue string) bool
	// ReplicateAppend streams one locally appended publish (at segment-log
	// offset off) to the queue's mirrors. The producer's confirm (seq on
	// target) is withheld until every gating mirror has appended the
	// record, or until lagging mirrors are evicted —
	// the callee ALWAYS eventually resolves target.ClusterConfirm(seq, _).
	// The callee takes its own message references for the ships; the
	// caller's reference only covers the call.
	ReplicateAppend(vhost, queue string, off uint64, m *Message, target ConfirmTarget, seq uint64)
	// ReplicateSettle streams durably committed settlements (ack records)
	// to the queue's mirrors: one offset (offs nil) or a batch
	// (off == OffNone). Fire-and-forget — consumer acks never wait on
	// mirrors; a mirror that misses acks merely redelivers, which
	// at-least-once permits.
	ReplicateSettle(vhost, queue string, off uint64, offs []uint64)
	// ApplyMirror applies one received mirror-stream frame (a publish to
	// one of the reserved "!mirror.*" exchanges) to this node's standby
	// replica of the queue. The returned error nacks the frame, telling
	// the master this mirror diverged.
	ApplyMirror(vhost, exchange, key string, m *Message) error
}

// Reserved mirror-stream exchange names. The replication layer rides the
// existing confirm-mode federation links: a mirror frame is a normal
// AMQP publish whose exchange names the operation and whose routing key
// carries the master-assigned offset as a 16-hex-digit prefix before the
// queue name. '!' is unreachable from clients (invalid in declared
// exchange names here), so the namespace cannot collide with user
// exchanges.
const (
	// MirrorDataExchange frames a data record: routing key
	// "%016x<queue>", body and properties are the message.
	MirrorDataExchange = "!mirror.data"
	// MirrorAckExchange frames a settle batch: routing key "<queue>"
	// (no offset prefix), body is N big-endian u64 offsets.
	MirrorAckExchange = "!mirror.ack"
	// MirrorResetExchange wipes the standby replica before a fresh
	// catch-up: routing key "<queue>", empty body.
	MirrorResetExchange = "!mirror.reset"
)

// IsMirrorExchange reports whether name addresses the mirror stream.
func IsMirrorExchange(name string) bool {
	return len(name) > 0 && name[0] == '!'
}

// MirrorMarker is the file the replication layer drops inside a standby
// replica's segment-log directory. Server.recoverDurable skips marked
// directories — a mirror is not a queue this node masters; promotion
// removes the marker and only then does a declare recover the log.
const MirrorMarker = "MIRROR"

// ConfirmTarget receives the bridged confirm verdict for a forwarded
// publish. Implementations must be safe to call from the federation
// link's read loop.
type ConfirmTarget interface {
	ClusterConfirm(seq uint64, ok bool)
}
