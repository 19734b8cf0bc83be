// Package pattern implements the messaging patterns of the paper's
// evaluation (§5.1) — work sharing (shared work queues), work sharing with
// feedback (work queues plus direct-routed per-producer reply queues),
// broadcast and gather (pub-sub fan-out with a reply queue drained by the
// single producer) — plus a multi-stage pipeline (edge → filter → fan-in
// aggregation) enabled by the role-graph engine.
//
// Every pattern is a declarative Graph (see engine.go): queues and
// exchanges to declare plus producer/consumer role behaviors, executed by
// one shared producer loop and one shared consumer body on one client
// runtime, in which every role instance holds an amqp.Session from a
// connection pool. Config.GoroutineBudget bounds that runtime; zero
// leaves it unbounded, one pool and socket per role instance. Run a
// pattern with Run(ctx, name, cfg); Names lists the registered patterns.
//
// Messaging parameters follow §5.2: two shared work queues, classic queues
// with the "reject-publish" overflow policy so producers observe
// backpressure and republish, and batch-wise acknowledgements.
package pattern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/ranks"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/workload"
)

// ErrInfeasible reports configurations an architecture cannot run — the
// paper's "no data points shown" cases (Stunnel beyond 16 connections).
var ErrInfeasible = errors.New("pattern: configuration infeasible for architecture")

// Config parameterizes one experiment run.
type Config struct {
	// Deployment is the architecture under test.
	Deployment core.Deployment
	// Workload selects payloads (Table 1 row).
	Workload workload.Workload
	// Producers and Consumers are the client counts. Broadcast/gather
	// forces one producer.
	Producers int
	Consumers int
	// MessagesPerProducer is the per-producer message budget.
	MessagesPerProducer int
	// WorkQueues is the number of shared work queues (default 2, §5.2).
	WorkQueues int
	// Prefetch is the consumer QoS window (default 8).
	Prefetch int
	// AckBatch acknowledges every n-th delivery with multiple=true
	// (default 4; 1 disables batching).
	AckBatch int
	// Window bounds a producer's in-flight unconfirmed publishes
	// (default 8).
	Window int
	// QueueBytes caps each queue's ready bytes with reject-publish
	// (default 32 MiB).
	QueueBytes int64
	// GoroutineBudget bounds the client runtime. Every role channel is
	// a Session from a connection pool, and consumers are ConsumeFunc
	// callbacks on the pooled read loops. Zero is unbounded: each role
	// instance has a pool of its own and dials its own socket (and client
	// NIC link) through the architecture's hop chain, and each producer
	// runs on its own goroutine, MPI workloads behind a synchronized
	// start. A positive budget shares a pool per dial destination, packs
	// sessions onto a few physical connections and runs producers on a
	// bounded worker set, so the whole client fleet (plus the in-process
	// broker's per-connection serve loops) stays within this many
	// goroutines and 10⁴–10⁵ logical clients per box become feasible; the
	// synchronized start applies only while every producer still has a
	// worker of its own.
	GoroutineBudget int
	// Timeout bounds the whole run — declarations, consumer start-up,
	// production, confirm drain, and the final consume wait share one
	// deadline (default 120 s). Size it for the run, not one phase.
	Timeout time.Duration
	// Collector, when non-nil, receives the run's metrics — a scenario
	// injects one it has registered with a live telemetry aggregator.
	// Nil creates a run-private collector.
	Collector *metrics.Collector
	// Probes selects the telemetry registry the engine's per-role
	// probes (produced/consumed/inflight, confirm latency) register in;
	// nil uses telemetry.Default.
	Probes *telemetry.Registry
}

// probes resolves the telemetry registry.
func (c *Config) probes() *telemetry.Registry {
	if c.Probes != nil {
		return c.Probes
	}
	return telemetry.Default
}

func (c *Config) defaults() error {
	if c.Deployment == nil {
		return errors.New("pattern: Config.Deployment required")
	}
	if c.Producers <= 0 {
		c.Producers = 1
	}
	if c.Consumers <= 0 {
		c.Consumers = 1
	}
	if c.MessagesPerProducer <= 0 {
		c.MessagesPerProducer = 16
	}
	if c.WorkQueues <= 0 {
		c.WorkQueues = 2
	}
	if c.Prefetch <= 0 {
		c.Prefetch = 8
	}
	if c.AckBatch <= 0 {
		c.AckBatch = 4
	}
	// A batch larger than the prefetch window can never fill: the broker
	// stops delivering once prefetch messages are unacknowledged, so the
	// consumer would wait forever for the rest of its batch. Clamp, as a
	// RabbitMQ operator must.
	if c.AckBatch > c.Prefetch {
		c.AckBatch = c.Prefetch
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = 32 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	return nil
}

// queueArgs are the §5.2 classic-queue settings.
func (c *Config) queueArgs() amqp.Table {
	return amqp.Table{
		"x-overflow":         "reject-publish",
		"x-max-length-bytes": c.QueueBytes,
	}
}

// nameOnSameNode derives a queue name that hashes to the same cluster node
// as ref, so direct-routed replies can be published over the same
// connection as the work queue (classic queues live on one master node).
func nameOnSameNode(d core.Deployment, base, ref string) string {
	return nameOnNode(d, base, d.Cluster().OwnerOf(ref))
}

// nameOnNode derives a queue name that hashes to the given cluster node.
func nameOnNode(d core.Deployment, base string, node int) string {
	cl := d.Cluster()
	name := base
	for i := 0; cl.OwnerOf(name) != node; i++ {
		name = fmt.Sprintf("%s~%d", base, i)
	}
	return name
}

// batchAcker acknowledges every n-th delivery with multiple=true and
// flushes the tail on Close.
type batchAcker struct {
	n       int
	pending int
	last    amqp.Delivery
	has     bool
}

func (b *batchAcker) add(d amqp.Delivery) error {
	b.pending++
	b.last = d
	b.has = true
	if b.pending >= b.n {
		b.pending = 0
		b.has = false
		return d.Ack(true)
	}
	return nil
}

func (b *batchAcker) flush() error {
	if b.has {
		b.has = false
		b.pending = 0
		return b.last.Ack(true)
	}
	return nil
}

// pubEntry tracks one in-flight publish: which message it carries and
// when it left, for the confirm-latency histogram.
type pubEntry struct {
	msgSeq uint64
	sentNs int64
}

// confirmWindow tracks in-flight publishes on a confirm-mode channel and
// reports nacked sequence numbers for retry. Publish-to-confirm latency
// streams into the engine's confirm-latency histogram.
type confirmWindow struct {
	ch       *amqp.Channel
	confirms <-chan amqp.Confirmation
	window   int
	lat      *telemetry.Histogram

	mu       sync.Mutex
	inflight map[uint64]pubEntry // publish seq -> in-flight entry
	nacked   []uint64
	idle     chan struct{} // non-nil while a drain waits for an empty window
	slots    chan struct{}
	closed   chan struct{}
	wg       sync.WaitGroup
}

func newConfirmWindow(ch *amqp.Channel, window int, lat *telemetry.Histogram) (*confirmWindow, error) {
	if err := ch.Confirm(false); err != nil {
		return nil, err
	}
	cw := &confirmWindow{
		ch:       ch,
		confirms: ch.NotifyPublish(make(chan amqp.Confirmation, 2*window)),
		window:   window,
		lat:      lat,
		inflight: map[uint64]pubEntry{},
		slots:    make(chan struct{}, window),
		closed:   make(chan struct{}),
	}
	cw.wg.Add(1)
	go cw.listen()
	return cw, nil
}

// listen resolves confirmations until the confirm stream closes (channel
// teardown or connection death); closed lets blocked publishers and
// drainers fail immediately instead of waiting out the run deadline.
func (cw *confirmWindow) listen() {
	defer cw.wg.Done()
	defer close(cw.closed)
	for conf := range cw.confirms {
		cw.mu.Lock()
		entry, ok := cw.inflight[conf.DeliveryTag]
		delete(cw.inflight, conf.DeliveryTag)
		if ok && !conf.Ack {
			cw.nacked = append(cw.nacked, entry.msgSeq)
		}
		if len(cw.inflight) == 0 && cw.idle != nil {
			close(cw.idle)
			cw.idle = nil
		}
		cw.mu.Unlock()
		if ok {
			if conf.Ack && cw.lat != nil {
				cw.lat.Record(time.Now().UnixNano() - entry.sentNs)
			}
			<-cw.slots
		}
	}
}

// publish sends one message, blocking while the window is full (but never
// past ctx or the death of the confirm stream). It returns any message
// sequence numbers that were nacked and must be resent.
func (cw *confirmWindow) publish(ctx context.Context, exchange, key string, msgSeq uint64, pub amqp.Publishing) error {
	select {
	case cw.slots <- struct{}{}:
	case <-cw.closed:
		return errors.New("pattern: confirm stream closed")
	case <-ctx.Done():
		return ctx.Err()
	}
	cw.mu.Lock()
	seq := cw.ch.GetNextPublishSeqNo()
	cw.inflight[seq] = pubEntry{msgSeq: msgSeq, sentNs: time.Now().UnixNano()}
	cw.mu.Unlock()
	if err := cw.ch.Publish(exchange, key, false, false, pub); err != nil {
		cw.mu.Lock()
		delete(cw.inflight, seq)
		cw.mu.Unlock()
		<-cw.slots
		return err
	}
	return nil
}

// takeNacked drains the retry list.
func (cw *confirmWindow) takeNacked() []uint64 {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	out := cw.nacked
	cw.nacked = nil
	return out
}

// drain waits until no publishes are in flight, signaled by the confirm
// listener the moment the window empties.
func (cw *confirmWindow) drain(ctx context.Context) error {
	cw.mu.Lock()
	if len(cw.inflight) == 0 {
		cw.mu.Unlock()
		return nil
	}
	if cw.idle == nil {
		cw.idle = make(chan struct{})
	}
	ch := cw.idle
	cw.mu.Unlock()
	unconfirmed := func() int {
		cw.mu.Lock()
		defer cw.mu.Unlock()
		return len(cw.inflight)
	}
	select {
	case <-ch:
		return nil
	case <-cw.closed:
		return fmt.Errorf("pattern: confirm stream closed with %d publishes unconfirmed", unconfirmed())
	case <-ctx.Done():
		return fmt.Errorf("pattern: %d publishes unconfirmed: %w", unconfirmed(), ctx.Err())
	}
}

// runClients runs f(0..n-1) on at most workers goroutines at a time
// (workers <= 0: one goroutine each), so 100k clients under a budget mean
// a fixed set of loops instead of 100k goroutines. When every client has
// a goroutine of its own and mpi is set, they run as an MPI-like rank
// group behind an mpirun-style synchronized start (Lstream/generic,
// Table 1); otherwise as plain goroutines (Deleria-style).
func runClients(n, workers int, mpi bool, f func(id int) error) error {
	if workers <= 0 || workers > n {
		workers = n
	}
	if mpi && workers == n {
		return ranks.NewGroup(n).Run(func(r *ranks.Rank) error {
			r.Barrier()
			return f(r.ID())
		})
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
