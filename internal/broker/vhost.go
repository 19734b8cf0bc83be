package broker

import (
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// Errors surfaced as channel exceptions.
var (
	ErrNotFound           = errors.New("broker: not found")
	ErrPreconditionFailed = errors.New("broker: precondition failed")
	ErrMemoryAlarm        = errors.New("broker: memory high watermark reached")
)

// registryShards spreads a vhost's exchange and queue registries across
// independently locked shards so concurrent publishers and declarers on
// different names do not contend on a single vhost-wide lock. Must be a
// power of two.
const registryShards = 16

type exchangeShard struct {
	mu sync.RWMutex
	m  map[string]*Exchange
}

type queueShard struct {
	mu sync.RWMutex
	m  map[string]*Queue
}

// VHost is an isolated namespace of exchanges and queues. The paper's
// deployments use a single vhost per broker; multiple vhosts let several
// users share one MSS-provisioned service.
type VHost struct {
	Name string

	// MemoryLimit bounds the total ready bytes across all queues; when
	// exceeded, publishes are rejected (the broker's memory alarm).
	// Zero means unlimited. The paper reserves 80% of broker RAM for
	// payload queues.
	MemoryLimit int64

	// logDir, when non-empty, is where this vhost's durable queues keep
	// their segment logs (one url.QueryEscape'd subdirectory per queue).
	// Set by the server from Config.DataDir before any connection is
	// accepted; empty means durable declares stay memory-only.
	logDir  string
	logOpts seglog.Options

	// cluster, when non-nil, is the owning server's cluster hook. Durable
	// declares wire each queue's settle stream (onCommit) to it so the
	// replication layer sees every durably committed ack.
	cluster ClusterHook

	exchanges [registryShards]exchangeShard
	queues    [registryShards]queueShard

	anonSeq    atomic.Uint64
	totalBytes atomic.Int64
}

func registryShardIdx(name string) uint32 {
	return fnvHash(name) & (registryShards - 1)
}

func (vh *VHost) exchangeShard(name string) *exchangeShard {
	return &vh.exchanges[registryShardIdx(name)]
}

func (vh *VHost) queueShard(name string) *queueShard {
	return &vh.queues[registryShardIdx(name)]
}

// NewVHost creates a vhost containing the default exchanges.
func NewVHost(name string) *VHost {
	vh := &VHost{Name: name}
	for i := range vh.exchanges {
		vh.exchanges[i].m = map[string]*Exchange{}
	}
	for i := range vh.queues {
		vh.queues[i].m = map[string]*Queue{}
	}
	// Default (nameless direct) exchange plus the standard pre-declared
	// exchanges clients expect.
	for _, e := range []*Exchange{
		NewExchange("", KindDirect),
		NewExchange("amq.direct", KindDirect),
		NewExchange("amq.fanout", KindFanout),
		NewExchange("amq.topic", KindTopic),
	} {
		s := vh.exchangeShard(e.Name)
		s.m[e.Name] = e
	}
	return vh
}

// DeclareExchange creates (or verifies, if passive) an exchange.
func (vh *VHost) DeclareExchange(name, kind string, passive bool) (*Exchange, error) {
	s := vh.exchangeShard(name)
	lockShard(&s.mu)
	defer s.mu.Unlock()
	if e, ok := s.m[name]; ok {
		if e.Kind != kind && !passive {
			return nil, fmt.Errorf("%w: exchange %q exists with kind %q", ErrPreconditionFailed, name, e.Kind)
		}
		return e, nil
	}
	if passive {
		return nil, fmt.Errorf("%w: exchange %q", ErrNotFound, name)
	}
	switch kind {
	case KindDirect, KindFanout, KindTopic:
	default:
		return nil, fmt.Errorf("%w: unknown exchange kind %q", ErrPreconditionFailed, kind)
	}
	e := NewExchange(name, kind)
	s.m[name] = e
	return e, nil
}

// Exchange looks up an exchange.
func (vh *VHost) Exchange(name string) (*Exchange, bool) {
	s := vh.exchangeShard(name)
	rlockShard(&s.mu)
	e, ok := s.m[name]
	s.mu.RUnlock()
	return e, ok
}

// DeleteExchange removes an exchange.
func (vh *VHost) DeleteExchange(name string, ifUnused bool) error {
	s := vh.exchangeShard(name)
	lockShard(&s.mu)
	defer s.mu.Unlock()
	e, ok := s.m[name]
	if !ok {
		return fmt.Errorf("%w: exchange %q", ErrNotFound, name)
	}
	if ifUnused && e.BindingCount() > 0 {
		return fmt.Errorf("%w: exchange %q in use", ErrPreconditionFailed, name)
	}
	if name == "" {
		return fmt.Errorf("%w: cannot delete default exchange", ErrPreconditionFailed)
	}
	delete(s.m, name)
	return nil
}

// DeclareQueue creates (or verifies, if passive) a queue. Anonymous names
// are generated. The default-exchange binding (queue name as routing key)
// is implicit via Route on the default exchange.
//
// A durable declare on a vhost with a data directory opens (or recovers)
// the queue's segment log before the queue becomes visible: any unacked
// records a previous incarnation left on disk are re-enqueued, flagged
// redelivered, before the first publish or consume can race them.
func (vh *VHost) DeclareQueue(name string, durable, exclusive, autoDelete, passive bool, args wire.Table) (*Queue, error) {
	if name == "" {
		for {
			name = fmt.Sprintf("amq.gen-%d", vh.anonSeq.Add(1))
			if _, taken := vh.Queue(name); !taken {
				break
			}
		}
	}
	s := vh.queueShard(name)
	lockShard(&s.mu)
	if q, ok := s.m[name]; ok {
		s.mu.Unlock()
		return q, nil
	}
	if passive {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: queue %q", ErrNotFound, name)
	}
	limits := QueueLimits{
		MaxLen:   int(args.Int("x-max-length", 0)),
		MaxBytes: args.Int("x-max-length-bytes", 0),
		Overflow: args.String("x-overflow", OverflowDropHead),
	}
	q := NewQueue(name, limits)
	q.Durable = durable
	q.Exclusive = exclusive
	q.AutoDelete = autoDelete
	q.onBytes = func(d int64) { vh.totalBytes.Add(d) }
	if durable && vh.logDir != "" {
		lg, rec, err := seglog.Open(filepath.Join(vh.logDir, url.QueryEscape(name)), vh.logOpts)
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("broker: durable queue %q: %w", name, err)
		}
		q.log = lg
		q.restore(rec.Unacked)
		if hook := vh.cluster; hook != nil {
			vhName, qName := vh.Name, name
			q.onCommit = func(off uint64, offs []uint64) {
				hook.ReplicateSettle(vhName, qName, off, offs)
			}
		}
	}
	s.m[name] = q
	// Export per-queue depth and rate sources, read only at telemetry
	// snapshot time. Re-declaring a queue name (a later deployment in
	// the same process) replaces the callbacks, so exports always
	// reflect the live queue.
	registerQueueTelemetry(q)
	// Implicit default-exchange binding, under the registry shard lock so
	// a concurrent DeleteQueue cannot slip between insert and bind and
	// leave a dangling binding to a deleted queue. Lock order (queue
	// shard → exchange shard → binding shard) matches DeleteQueue, which
	// releases the registry lock before unbinding.
	if def, ok := vh.Exchange(""); ok {
		def.Bind(q, name)
	}
	s.mu.Unlock()
	return q, nil
}

// Queue looks up a queue by name.
func (vh *VHost) Queue(name string) (*Queue, bool) {
	s := vh.queueShard(name)
	rlockShard(&s.mu)
	q, ok := s.m[name]
	s.mu.RUnlock()
	return q, ok
}

// DeleteQueue removes a queue and all its bindings, returning the purged
// message count.
func (vh *VHost) DeleteQueue(name string, ifUnused, ifEmpty bool) (int, error) {
	q, n, err := vh.removeQueue(name, func(q *Queue) error {
		switch {
		case ifUnused && q.ConsumerCount() > 0:
			return fmt.Errorf("%w: queue %q has consumers", ErrPreconditionFailed, name)
		case ifEmpty && q.Len() > 0:
			return fmt.Errorf("%w: queue %q not empty", ErrPreconditionFailed, name)
		}
		return nil
	})
	if err == nil && q.log != nil {
		// Explicit deletion removes the on-disk history too — unlike a
		// crash or close, there is nothing left to recover.
		q.log.Remove()
	}
	return n, err
}

// SurrenderQueue removes a queue from this vhost WITHOUT deleting its
// on-disk history: the segment log is flushed, synced and closed, so a
// new master can recover it — the rebalance-on-join handoff. The caller
// is responsible for having quiesced the queue first (no consumers, no
// in-flight publishes).
func (vh *VHost) SurrenderQueue(name string) error {
	q, _, err := vh.removeQueue(name, func(*Queue) error { return nil })
	if err == nil && q.log != nil {
		q.log.Close()
	}
	return err
}

// removeQueue takes a queue out of the registry, if check allows it
// under the registry lock, then drops its telemetry and bindings and
// marks it deleted. It returns the queue and its ready count at removal.
func (vh *VHost) removeQueue(name string, check func(*Queue) error) (*Queue, int, error) {
	s := vh.queueShard(name)
	lockShard(&s.mu)
	q, ok := s.m[name]
	var err error
	if !ok {
		err = fmt.Errorf("%w: queue %q", ErrNotFound, name)
	} else {
		err = check(q)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, 0, err
	}
	n := q.Len()
	delete(s.m, name)
	s.mu.Unlock()
	unregisterQueueTelemetry(name)
	for i := range vh.exchanges {
		es := &vh.exchanges[i]
		rlockShard(&es.mu)
		exchanges := make([]*Exchange, 0, len(es.m))
		for _, e := range es.m {
			exchanges = append(exchanges, e)
		}
		es.mu.RUnlock()
		for _, e := range exchanges {
			e.UnbindQueue(q)
		}
	}
	q.markDeleted()
	return q, n, nil
}

// eachQueue calls fn for every queue currently registered.
func (vh *VHost) eachQueue(fn func(*Queue)) {
	for i := range vh.queues {
		s := &vh.queues[i]
		rlockShard(&s.mu)
		queues := make([]*Queue, 0, len(s.m))
		for _, q := range s.m {
			queues = append(queues, q)
		}
		s.mu.RUnlock()
		for _, q := range queues {
			fn(q)
		}
	}
}

// close shuts every queue down for a graceful server stop. See Queue.close.
func (vh *VHost) close() {
	vh.eachQueue(func(q *Queue) { q.close() })
}

// crash hard-stops every queue: segment logs are crashed (unflushed
// buffers die) and in-memory state is torn down. See Queue.crash.
func (vh *VHost) crash() {
	vh.eachQueue(func(q *Queue) { q.crash() })
}

// registerQueueTelemetry exports a queue's depth and rate sources, read
// only at telemetry snapshot time. Re-declaring a queue name (a later
// deployment in the same process) replaces the callbacks, and
// DeleteQueue unregisters them, so exports always reflect live queues
// and closures never pin deleted ones.
func registerQueueTelemetry(q *Queue) {
	// The queue tag set is interned once; registration and the matching
	// unregister resolve through the same small context key instead of
	// re-rendering "queue=<name>" identities.
	ctx := telemetry.Intern("queue=" + q.Name)
	telemetry.Default.GaugeFuncCtx("broker.queue_depth", ctx, func() int64 { return int64(q.Len()) })
	telemetry.Default.CounterFuncCtx("broker.queue_published", ctx, func() int64 { return int64(q.Stats().Published) })
	telemetry.Default.CounterFuncCtx("broker.queue_acked", ctx, func() int64 { return int64(q.Stats().Acked) })
	telemetry.Default.CounterFuncCtx("broker.queue_requeued", ctx, func() int64 { return int64(q.Stats().Requeued) })
	if lg := q.log; lg != nil {
		telemetry.Default.GaugeFuncCtx("broker.queue_log_bytes", ctx, func() int64 { return lg.DiskBytes() })
	}
}

// unregisterQueueTelemetry drops a deleted queue's export callbacks.
func unregisterQueueTelemetry(name string) {
	ctx := telemetry.Intern("queue=" + name)
	telemetry.Default.UnregisterCtx("broker.queue_depth", ctx)
	telemetry.Default.UnregisterCtx("broker.queue_published", ctx)
	telemetry.Default.UnregisterCtx("broker.queue_acked", ctx)
	telemetry.Default.UnregisterCtx("broker.queue_requeued", ctx)
	telemetry.Default.UnregisterCtx("broker.queue_log_bytes", ctx)
}

// routeScratch pools the per-publish queue slice so steady-state routing
// does not allocate.
var routeScratch = sync.Pool{New: func() any { return new([]*Queue) }}

// Publish routes a message through an exchange into zero or more queues.
// It returns the number of queues the message reached. With a reject-publish
// queue at capacity or the vhost memory alarm raised, the error reports the
// rejection so confirm mode can nack the publisher.
//
// Every matched queue shares the one message instance: routing retains a
// reference per queue that accepts it (refcount = routed count) instead of
// aliasing a heap copy per publish. Per-queue delivery state lives in the
// queue entries, so sharing is safe. The caller keeps its own reference
// throughout and releases it after Publish returns (mandatory returns
// still need the body).
func (vh *VHost) Publish(exchange, routingKey string, m *Message) (int, error) {
	e, ok := vh.Exchange(exchange)
	if !ok {
		return 0, fmt.Errorf("%w: exchange %q", ErrNotFound, exchange)
	}
	if vh.MemoryLimit > 0 && vh.totalBytes.Load() >= vh.MemoryLimit {
		return 0, ErrMemoryAlarm
	}
	sp := routeScratch.Get().(*[]*Queue)
	queues := e.routeAppend(routingKey, (*sp)[:0])
	routed := 0
	var rejectErr error
	for _, q := range queues {
		m.Retain() // the queue's reference
		if err := q.Publish(m); err != nil {
			m.Release()
			rejectErr = err
			continue
		}
		routed++
	}
	for i := range queues {
		queues[i] = nil // do not pin queues in the pool
	}
	*sp = queues[:0]
	routeScratch.Put(sp)
	if rejectErr != nil && routed == 0 {
		return 0, rejectErr
	}
	return routed, nil
}

// PublishTracked publishes one message straight into the named queue —
// the default-exchange direct route — and returns the entry's segment-log
// offset (OffNone on transient queues). It is the replicated-publish
// path: the channel layer needs the offset the master assigned so the
// replication hook can withhold the producer's confirm until the in-sync
// mirror set has appended the same record. Semantics otherwise match
// Publish through the default exchange.
func (vh *VHost) PublishTracked(queue string, m *Message) (uint64, error) {
	q, ok := vh.Queue(queue)
	if !ok {
		return OffNone, fmt.Errorf("%w: queue %q", ErrNotFound, queue)
	}
	if vh.MemoryLimit > 0 && vh.totalBytes.Load() >= vh.MemoryLimit {
		return OffNone, ErrMemoryAlarm
	}
	m.Retain() // the queue's reference
	off, err := q.PublishOff(m)
	if err != nil {
		m.Release()
		return OffNone, err
	}
	return off, nil
}
