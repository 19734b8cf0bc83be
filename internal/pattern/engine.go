package pattern

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/workload"
)

// This file is the pattern role engine: every messaging pattern is declared
// as a Graph — broker objects to set up plus producer/consumer role
// behaviors — and executed by exactly one producer loop (runProducer) and
// one consumer body (consumerCore), each role instance on a session from
// the run's sessionManager. Confirm-window, batch-ack, prefetch and
// completion-counting plumbing therefore lives in one place, and a new
// pattern is a Build function returning a Topology value rather than a new
// pair of hand-rolled client loops.

// FlowMode selects the producer's flow-control discipline.
type FlowMode int

const (
	// FlowConfirm is the open-loop discipline: publisher confirms bound
	// the in-flight window and nacked (reject-publish) messages are
	// republished after a short backoff (§5.2 backpressure handling).
	FlowConfirm FlowMode = iota
	// FlowClosedLoop gates each publish on replies received: at most
	// Window messages are outstanding, and per-reply round-trip times are
	// recorded (the feedback and gather patterns).
	FlowClosedLoop
	// FlowPaced gates publishes on aggregate delivery progress: the
	// producer stays at most Window messages ahead of the consumers so no
	// subscriber queue overflows (broadcast without gather).
	FlowPaced
)

// Leg is one publish target of a producer instance. A producer opens one
// connection per leg and publishes every message on all of them (the
// broadcast pattern fans one message out across per-node legs).
type Leg struct {
	// Exchange is the target exchange; empty means the default exchange.
	Exchange string
	// Key is the routing key (the queue name on the default exchange).
	Key string
	// Anchor is the queue name used to select the endpoint to dial; it
	// defaults to Key.
	Anchor string
}

func (l Leg) anchor() string {
	if l.Anchor != "" {
		return l.Anchor
	}
	return l.Key
}

// ReplySource is a queue a closed-loop producer drains for replies, over
// the connection of an existing leg (reply queues are co-located with
// their work queue so the producer reuses that connection).
type ReplySource struct {
	Leg   int
	Queue string
}

// ReplySpec declares how a consumer role responds to each delivery.
type ReplySpec struct {
	// ToReplyTo routes the reply to the delivery's ReplyTo queue via the
	// default exchange (the feedback pattern's direct routing).
	ToReplyTo bool
	// Exchange/Key are the fixed reply target otherwise (the gather
	// exchange, or a downstream stage queue on the default exchange).
	Exchange string
	Key      string
	// Forward sends the delivery body onward (a pipeline stage); false
	// sends a small acknowledgement payload.
	Forward bool
}

// ConsumerRole declares one class of consuming clients.
type ConsumerRole struct {
	// Name labels consumer tags and errors.
	Name string
	// Count is the number of instances; zero means Config.Consumers.
	Count int
	// Queue maps an instance index to the queue it consumes.
	Queue func(i int) string
	// Reply, when non-nil, publishes a response per delivery.
	Reply *ReplySpec
	// Counts marks this role's deliveries as the run's completion and
	// pacing signal.
	Counts bool
	// ReplayFrom, when non-nil, attaches this role as a durable-log replay
	// consumer starting at the given queue offset (x-stream-offset): the
	// broker feeds it retained history and then the live tail, auto-acked.
	// Requires a durability-enabled deployment.
	ReplayFrom *int64
	// StartAfter delays this role's attach until the counting roles have
	// seen this many deliveries — a cold consumer joining after the hot
	// phase. Instances report ready immediately so the run can start.
	StartAfter int64
}

// ProducerRole declares the producing clients (Config.Producers instances).
type ProducerRole struct {
	// Name labels consumer tags and errors.
	Name string
	// Mode is the flow-control discipline.
	Mode FlowMode
	// Legs maps a producer index to its publish targets.
	Legs func(p int) []Leg
	// Replies maps a producer index to the queues it drains for replies
	// (closed-loop mode only).
	Replies func(p int) []ReplySource
	// RepliesPerMsg is the number of replies expected per message (1 for
	// feedback, the consumer count for gather). Zero means 1.
	RepliesPerMsg int
	// PacePerMsg is the number of counted deliveries one message causes
	// (paced mode), used to compute the pacing floor.
	PacePerMsg int
	// Props supplies pattern-specific message properties; the engine fills
	// Body, ContentType (if unset) and — for RTT-measuring modes — the
	// Timestamp.
	Props func(p int, seq uint64) amqp.Publishing
}

// ExchangeDecl declares one exchange.
type ExchangeDecl struct {
	Name string
	Kind string
}

// QueueDecl declares one queue. Bytes overrides Config.QueueBytes for this
// queue when positive (a pipeline's fan-in queue is sized for the whole
// run, for example).
type QueueDecl struct {
	Name  string
	Bytes int64
}

// BindingDecl binds a queue to an exchange.
type BindingDecl struct {
	Queue    string
	Exchange string
	Key      string
}

// Declarations is one group of broker-object declarations executed over a
// single connection, dialed via the Anchor queue's endpoint (RabbitMQ
// places classic queues on the node the declaring client is connected to,
// so grouping controls placement).
type Declarations struct {
	Anchor    string
	Exchanges []ExchangeDecl
	Queues    []QueueDecl
	Bindings  []BindingDecl
}

// Topology is a fully resolved pattern instance: what to declare, who the
// roles are, and when the run is complete.
type Topology struct {
	Declare  []Declarations
	Producer ProducerRole
	// Consumers lists the consumer roles (a pipeline has several stages).
	Consumers []ConsumerRole
	// WaitConsumed, when positive, keeps the run alive after producers
	// finish until the counting role has seen this many deliveries.
	// Closed-loop patterns complete through their reply budget instead.
	WaitConsumed int64
}

// Graph is a registered messaging pattern: a name plus a Build function
// resolving the declarative topology against a concrete Config (queue
// placement depends on the deployment's cluster hashing). Build may adjust
// Config sizing knobs (QueueBytes floors, for instance).
type Graph struct {
	Name string
	// SingleProducer forces Producers to 1 (the broadcast patterns).
	SingleProducer bool
	// NeedsDurability marks patterns that replay from durable queue logs;
	// running one on a deployment without durable storage fails fast.
	NeedsDurability bool
	Build           func(cfg *Config) (*Topology, error)
}

// ---------------------------------------------------------------- registry

var (
	registryMu sync.RWMutex
	registry   = map[string]*Graph{}
)

// Register adds a pattern graph to the registry; registering a duplicate
// name panics (patterns register from init functions).
func Register(g *Graph) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[g.Name]; dup {
		panic("pattern: duplicate graph " + g.Name)
	}
	registry[g.Name] = g
}

// Lookup resolves a registered pattern graph by name.
func Lookup(name string) (*Graph, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	g, ok := registry[name]
	return g, ok
}

// Names lists the registered pattern names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------- progress

// progress is a channel-signaled monotonic counter: waiters block on a
// channel closed the instant their threshold is reached, instead of
// sleep-polling. It backs both run completion and broadcast pacing. The
// per-delivery Add stays an atomic increment unless a waiter is parked
// (the count is bumped once per message by every consumer of a run, so
// it must not serialize them on a lock).
type progress struct {
	n       atomic.Int64
	waiting atomic.Bool
	mu      sync.Mutex
	waiters []*progressWaiter
}

type progressWaiter struct {
	at int64
	ch chan struct{}
}

func (p *progress) Add(k int64) {
	n := p.n.Add(k)
	if !p.waiting.Load() {
		// No waiter parked. A waiter registering concurrently re-checks
		// the count after setting waiting, so this increment is not lost.
		return
	}
	p.mu.Lock()
	var fire []*progressWaiter
	keep := p.waiters[:0]
	for _, w := range p.waiters {
		if n >= w.at {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	p.waiters = keep
	if len(p.waiters) == 0 {
		p.waiting.Store(false)
	}
	p.mu.Unlock()
	for _, w := range fire {
		close(w.ch)
	}
}

func (p *progress) Load() int64 { return p.n.Load() }

// WaitAtLeast blocks until the counter reaches at or ctx ends.
func (p *progress) WaitAtLeast(ctx context.Context, at int64) error {
	if p.n.Load() >= at {
		return nil
	}
	w := &progressWaiter{at: at, ch: make(chan struct{})}
	p.mu.Lock()
	p.waiters = append(p.waiters, w)
	p.waiting.Store(true)
	// Re-check after publishing the waiter: an Add that raced past the
	// first check above must now either see waiting or be seen here.
	if p.n.Load() >= at {
		p.waiters = p.waiters[:len(p.waiters)-1]
		if len(p.waiters) == 0 {
			p.waiting.Store(false)
		}
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("pattern: %d/%d messages: %w", p.Load(), at, ctx.Err())
	}
}

// ---------------------------------------------------------------- engine

// Run executes the named registered pattern under cfg. The context bounds
// the whole run (in addition to cfg.Timeout) and cancels every role loop.
func Run(ctx context.Context, name string, cfg Config) (*metrics.Result, error) {
	g, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("pattern: unknown pattern %q (registered: %v)", name, Names())
	}
	return g.Run(ctx, cfg)
}

// engineProbes bundles the telemetry wiring of one run: the registry
// the per-role probes live in, the producer's in-flight gauge, and the
// confirm-latency histogram. Probes are resolved once per run; role
// loops capture shards so the per-event cost is one atomic add.
type engineProbes struct {
	registry *telemetry.Registry
	inflight *telemetry.Gauge
	// countingInflight selects how the in-flight gauge drains: counted
	// deliveries when a counting role exists, completed replies
	// otherwise (pure closed-loop patterns like feedback).
	countingInflight bool
	confirmLat       *telemetry.Histogram
}

// Run executes the graph under cfg. The first consumer instance to fail
// cancels the run, and its error, naming the instance, is the run's.
func (g *Graph) Run(ctx context.Context, cfg Config) (*metrics.Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if g.SingleProducer {
		cfg.Producers = 1
	}
	if max := cfg.Deployment.MaxProducerConns(); max > 0 && cfg.Producers > max {
		return nil, fmt.Errorf("%w: %d producers > %d tunnel connections",
			ErrInfeasible, cfg.Producers, max)
	}
	if g.NeedsDurability && !cfg.Deployment.Durable() {
		return nil, fmt.Errorf("pattern: %s replays from durable queue logs; deploy with durability enabled", g.Name)
	}
	topo, err := g.Build(&cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)

	for _, d := range topo.Declare {
		if err := declareGroup(cfg, d); err != nil {
			return nil, err
		}
	}

	col := cfg.Collector
	if col == nil {
		col = metrics.NewCollector()
	}
	ep := &engineProbes{registry: cfg.probes()}
	ep.inflight = ep.registry.Gauge("pattern.inflight", "role="+topo.Producer.Name)
	ep.confirmLat = ep.registry.Histogram("pattern.confirm_latency_ns")
	for _, role := range topo.Consumers {
		if role.Counts {
			ep.countingInflight = true
		}
	}
	prog := &progress{} // counted deliveries (completion + pacing)
	var replied atomic.Int64

	mgr := newSessionManager(&cfg)
	defer mgr.Close()
	fleet := &consumerFleet{cfg: &cfg, mgr: mgr, col: col, ep: ep, prog: prog, fail: fail}
	fleet.ctx, fleet.cancel = context.WithCancel(ctx)
	// Deferred after mgr.Close, so it runs first: the close watches and
	// any deferred attach have ended before the pools tear the sessions
	// down.
	defer fleet.stop()
	if err := fleet.launch(topo); err != nil {
		return nil, fmt.Errorf("pattern: consumers not ready: %w", runErr(ctx, err))
	}

	col.Start()
	err = runClients(cfg.Producers, mgr.workers, cfg.Workload.MPI, func(p int) error {
		return runProducer(ctx, &cfg, topo, mgr, p, col, ep, prog, &replied)
	})
	if err == nil && topo.WaitConsumed > 0 {
		err = prog.WaitAtLeast(ctx, topo.WaitConsumed)
	}
	col.Stop()
	fleet.stop()
	if err != nil {
		return nil, runErr(ctx, err)
	}
	if topo.Producer.Mode == FlowClosedLoop {
		want := int64(cfg.Producers) * int64(cfg.MessagesPerProducer) * int64(topo.Producer.repliesPerMsg())
		if got := replied.Load(); got < want {
			return nil, fmt.Errorf("pattern: only %d/%d replies", got, want)
		}
	}
	return col.Snapshot(), nil
}

// runErr prefers the consumer failure that cancelled the run over the
// cancellation error of whichever wait noticed it first.
func runErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil && cause != ctx.Err() {
		return cause
	}
	return err
}

func (r *ConsumerRole) instances(cfg *Config) int {
	if r.Count > 0 {
		return r.Count
	}
	return cfg.Consumers
}

func (r *ProducerRole) repliesPerMsg() int {
	if r.RepliesPerMsg > 0 {
		return r.RepliesPerMsg
	}
	return 1
}

// declareGroup declares one group of broker objects over one connection.
func declareGroup(cfg Config, d Declarations) error {
	conn, err := cfg.Deployment.ConsumerEndpoint(d.Anchor).Connect()
	if err != nil {
		return err
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		return err
	}
	for _, x := range d.Exchanges {
		if err := ch.ExchangeDeclare(x.Name, x.Kind, true, false, false, false, nil); err != nil {
			return err
		}
	}
	for _, q := range d.Queues {
		args := cfg.queueArgs()
		if q.Bytes > 0 {
			args["x-max-length-bytes"] = q.Bytes
		}
		if _, err := ch.QueueDeclare(q.Name, true, false, false, false, args); err != nil {
			return err
		}
	}
	for _, b := range d.Bindings {
		if err := ch.QueueBind(b.Queue, b.Key, b.Exchange, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- sessions

// fixedSlack is the goroutine head-room a budgeted run reserves for its
// own plumbing: broker accept loops, the telemetry aggregator, the fault
// injector, the pacer, the consumer close watch, the deferred-role
// attacher, and reconnect transients.
const fixedSlack = 12

// pooledSessionsPerConn is a budgeted run's soft fan-out target: pools
// spread sessions across connections in chunks of this size while the
// connection allowance lasts, then pack up to the negotiated channel
// limit.
const pooledSessionsPerConn = 256

// sessionManager hands every role instance of one run its channel: a
// Session from an amqp.ClientPool, plus the worker count role loops run
// on. GoroutineBudget 0 is unbounded: each session gets a pool of its own,
// built from its own endpoint, so each role instance dials its own socket
// through the architecture's hop chain — and, on a shaped client path,
// through its own NIC link, which the endpoint holds — and runs on its own
// goroutine. A budget bounds both: sessions share one pool per dial
// destination, and workers and a physical connection allowance shared by
// every pool are carved out of the budget, each pooled connection charged
// twice because the broker lives in-process (client read loop + broker
// serve loop).
type sessionManager struct {
	cfg     *Config
	workers int // concurrent role instances; 0 = unbounded

	mu        sync.Mutex
	pools     []*amqp.ClientPool           // every pool of the run
	shared    map[poolKey]*amqp.ClientPool // budgeted runs only
	connsLeft int
}

// poolKey names one dial destination, which a budgeted run's sessions
// share a pool for. MSS gives every broker pod the same URL and selects
// the pod by SNI in the endpoint's hop chain, so the queue's master node
// is part of the key; the side is too, because a deployment may route
// producers and consumers over different hops.
type poolKey struct {
	consumer bool
	url      string
	node     int
}

func newSessionManager(cfg *Config) *sessionManager {
	m := &sessionManager{cfg: cfg, shared: map[poolKey]*amqp.ClientPool{}}
	if budget := cfg.GoroutineBudget; budget > 0 {
		m.workers = min(max(budget/8, 1), 32, cfg.Producers)
		// An active producer costs up to three goroutines (worker +
		// confirm listener or reply pump + drainer); a pooled connection
		// costs two.
		m.connsLeft = max((budget-3*m.workers-fixedSlack)/2, 1)
	}
	return m
}

// admit is a budgeted run's shared DialGate: one permit per connection
// beyond each pool's first.
func (m *sessionManager) admit() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.connsLeft <= 0 {
		return false
	}
	m.connsLeft--
	return true
}

// session opens a session that reaches queue's master node through the
// producer or consumer endpoint, and returns what to call once the role
// instance is done with it. An unbounded run's session has a pool — a
// socket — of its own, and releasing it closes the socket, as a client
// closes its dedicated connection; a budgeted run's session shares its
// destination's pool, and releasing it frees only its channel.
func (m *sessionManager) session(consumer bool, queue string) (*amqp.Session, func(), error) {
	d := m.cfg.Deployment
	var ep core.Endpoint
	if consumer {
		ep = d.ConsumerEndpoint(queue)
	} else {
		ep = d.ProducerEndpoint(queue)
	}
	m.mu.Lock()
	var p *amqp.ClientPool
	if m.workers == 0 {
		p = amqp.NewClientPool(amqp.PoolConfig{URL: ep.URL, Config: ep.Config(), SessionsPerConn: 1})
		m.pools = append(m.pools, p)
	} else {
		key := poolKey{consumer: consumer, url: ep.URL, node: d.Cluster().OwnerOf(queue)}
		if p = m.shared[key]; p == nil {
			// The pool packs sessions. Its first connection dials ungated
			// (a pool must be able to carry at least one session), so
			// charge the allowance for it here.
			m.connsLeft--
			p = amqp.NewClientPool(amqp.PoolConfig{URL: ep.URL, Config: ep.Config(),
				SessionsPerConn: pooledSessionsPerConn, DialGate: m.admit})
			m.shared[key] = p
			m.pools = append(m.pools, p)
		}
	}
	m.mu.Unlock()
	s, err := p.Session()
	if err != nil {
		return nil, nil, err
	}
	if m.workers == 0 {
		return s, func() { p.Close() }, nil
	}
	return s, func() { s.Close() }, nil
}

// Close tears down every pool (and with them all sessions).
func (m *sessionManager) Close() {
	m.mu.Lock()
	pools := m.pools
	m.pools = nil
	m.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
}

// ---------------------------------------------------------------- consumers

// consumerCore is one consumer instance's per-delivery body: verify,
// count, reply, batch-ack. The owning connection's read loop drives it
// via ConsumeFunc; the mutex serializes handle against the final
// stop-flush (uncontended on the hot path).
type consumerCore struct {
	name string // "role i", for errors
	cfg  *Config
	role *ConsumerRole
	col  *metrics.Collector
	ep   *engineProbes
	prog *progress
	ch   *amqp.Channel

	mu           sync.Mutex
	stopped      bool
	consumed     *telemetry.CounterShard
	roleConsumed *telemetry.CounterShard
	acker        batchAcker
}

func newConsumerCore(cfg *Config, role *ConsumerRole, i int, ch *amqp.Channel, col *metrics.Collector, ep *engineProbes, prog *progress) *consumerCore {
	return &consumerCore{
		name:         fmt.Sprintf("%s %d", role.Name, i),
		cfg:          cfg,
		role:         role,
		col:          col,
		ep:           ep,
		prog:         prog,
		ch:           ch,
		consumed:     col.ConsumedShard(i),
		roleConsumed: ep.registry.Counter("pattern.consumed", "role="+role.Name).Shard(i),
		acker:        batchAcker{n: cfg.AckBatch},
	}
}

// handle processes one delivery. Reply publishes and acks are
// asynchronous operations, so running on a shared connection's read loop
// is safe (see amqp.ConsumeFunc).
func (cc *consumerCore) handle(d amqp.Delivery) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.stopped {
		return nil
	}
	if err := cc.cfg.Workload.Verify(d.Body); err != nil {
		cc.col.AddErrors(1)
	}
	cc.consumed.Add(1)
	cc.roleConsumed.Inc()
	if cc.role.Counts {
		cc.prog.Add(1)
		cc.ep.inflight.Add(-1)
	}
	if cc.role.Reply != nil {
		if err := publishReply(cc.ch, cc.role.Reply, d); err != nil {
			return err
		}
	}
	if cc.role.ReplayFrom == nil {
		return cc.acker.add(d)
	}
	return nil
}

// stop flushes the batch-ack tail and drops any later deliveries, so a
// run's final partial batch never resurfaces as a redelivery in the next
// run on the same deployment.
func (cc *consumerCore) stop() {
	cc.mu.Lock()
	cc.stopped = true
	cc.acker.flush()
	cc.mu.Unlock()
}

// publishReply responds to one delivery per the role's ReplySpec, echoing
// the correlation id and timestamp so the producer can match the reply and
// compute its round-trip time.
func publishReply(ch *amqp.Channel, r *ReplySpec, d amqp.Delivery) error {
	exchange, key := r.Exchange, r.Key
	if r.ToReplyTo {
		if d.ReplyTo == "" {
			return nil
		}
		exchange, key = "", d.ReplyTo
	}
	pub := amqp.Publishing{
		CorrelationID: d.CorrelationID,
		Timestamp:     d.Timestamp,
		Body:          []byte("ok"),
	}
	if r.Forward {
		pub.ContentType = d.ContentType
		pub.Body = d.Body
	}
	return ch.Publish(exchange, key, false, false, pub)
}

// consumerFleet is a run's consumer instances: callback consumers on
// sessions, driven by their connections' read loops. It keeps their cores
// for the final ack flush and watches their channels, so an instance whose
// channel closes mid-run — its connection died without (or past) a
// reconnect policy, or the broker closed the channel — fails the run by
// name instead of leaving it to time out.
type consumerFleet struct {
	cfg  *Config
	mgr  *sessionManager
	col  *metrics.Collector
	ep   *engineProbes
	prog *progress
	fail context.CancelCauseFunc // cancels the run

	mu     sync.Mutex
	cores  []*consumerCore
	closes []reflect.SelectCase // cores[k]'s NotifyClose receive
	kicks  []chan struct{}      // per close watch: wakes it to pick up a late attach

	// ctx is the run's, cancelled on stop too: it bounds the watches and
	// the deferred attacher, which wg waits for.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// watchCases is how many instances one close watch selects over:
// reflect.Select takes at most 65536 cases, two of which are the run's end
// and the watch's kick.
var watchCases = 1<<16 - 2

// consumerInstance is one instance of a consumer role.
type consumerInstance struct {
	role *ConsumerRole
	i    int
}

// launch attaches the consumer instances that start with the run, at
// most mgr.workers at a time, and returns once all are subscribed or the
// first attach fails; once ctx ends, no further attach starts. Deferred
// (StartAfter) instances attach from one goroutine once the counting
// roles have seen their threshold.
func (f *consumerFleet) launch(topo *Topology) error {
	var now, later []consumerInstance
	for k := range topo.Consumers {
		role := &topo.Consumers[k]
		for i := 0; i < role.instances(f.cfg); i++ {
			if role.StartAfter > 0 {
				later = append(later, consumerInstance{role, i})
			} else {
				now = append(now, consumerInstance{role, i})
			}
		}
	}
	err := runClients(len(now), f.mgr.workers, false, func(k int) error {
		if err := f.ctx.Err(); err != nil {
			return err
		}
		return f.attach(now[k])
	})
	if err != nil {
		return err
	}
	f.rewatch()
	if len(later) > 0 {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for _, inst := range later {
				if f.prog.WaitAtLeast(f.ctx, inst.role.StartAfter) != nil {
					return // the run ended first, and reports why itself
				}
				if err := f.attach(inst); err != nil {
					f.fail(err)
					return
				}
				f.rewatch()
			}
		}()
	}
	return nil
}

// attach opens inst's session and subscribes its callback. The core is
// wired to the channel before basic.consume is issued: deliveries may
// start arriving on the read loop mid-call. A handler error (a reply
// publish failure) stops the instance and fails the run.
func (f *consumerFleet) attach(inst consumerInstance) (err error) {
	role, i := inst.role, inst.i
	queue := role.Queue(i)
	s, release, err := f.mgr.session(true, queue)
	if err != nil {
		return fmt.Errorf("pattern: %s %d: %w", role.Name, i, err)
	}
	defer func() {
		if err != nil {
			release()
			err = fmt.Errorf("pattern: %s %d: %w", role.Name, i, err)
		}
	}()
	if err := s.Qos(f.cfg.Prefetch, 0, false); err != nil {
		return err
	}
	// Replay roles attach as durable-log replay consumers: the broker
	// forces noAck and ignores prefetch credit, so consume accordingly.
	var args amqp.Table
	autoAck := false
	if role.ReplayFrom != nil {
		args = amqp.Table{"x-stream-offset": *role.ReplayFrom}
		autoAck = true
	}
	cc := newConsumerCore(f.cfg, role, i, s.Channel, f.col, f.ep, f.prog)
	handler := func(d amqp.Delivery) {
		if err := cc.handle(d); err != nil {
			cc.stop()
			f.fail(fmt.Errorf("pattern: %s: %w", cc.name, err))
		}
	}
	closed := s.NotifyClose(make(chan *amqp.Error, 1))
	if _, err := s.ConsumeFunc(queue, fmt.Sprintf("%s-%d", role.Name, i), autoAck, false, false, args, handler); err != nil {
		return err
	}
	f.mu.Lock()
	f.cores = append(f.cores, cc)
	f.closes = append(f.closes, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(closed)})
	f.mu.Unlock()
	return nil
}

// rewatch starts a close watch for each block of watchCases attached
// instances not yet watched, and wakes the newest watch to pick up
// instances attached since it last looked.
func (f *consumerFleet) rewatch() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.kicks)*watchCases < len(f.closes) {
		f.kicks = append(f.kicks, make(chan struct{}, 1))
		f.wg.Add(1)
		go f.watch(len(f.kicks) - 1)
	}
	if n := len(f.kicks); n > 0 {
		select {
		case f.kicks[n-1] <- struct{}{}:
		default:
		}
	}
}

// watch fails the run on the first instance of block w whose channel
// closes before stop. One goroutine selects over a whole block's
// NotifyClose channels, so a budgeted fleet pays a goroutine per 65534
// consumers for the watch, not one per consumer.
func (f *consumerFleet) watch(w int) {
	defer f.wg.Done()
	lo := w * watchCases
	for {
		f.mu.Lock()
		hi := min(len(f.closes), lo+watchCases)
		cases := append([]reflect.SelectCase{
			{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.ctx.Done())},
			{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.kicks[w])},
		}, f.closes[lo:hi]...)
		cores := f.cores[lo:hi]
		f.mu.Unlock()
		k, v, _ := reflect.Select(cases)
		switch k {
		case 0:
			return
		case 1:
			continue
		}
		name := cores[k-2].name
		err := fmt.Errorf("pattern: %s: channel closed", name)
		if e, _ := v.Interface().(*amqp.Error); e != nil {
			err = fmt.Errorf("pattern: %s: channel closed: %w", name, e)
		}
		f.fail(err)
		return
	}
}

// stop ends the watches and the deferred attacher and flushes every
// instance's batch-ack tail. Sessions themselves are released by the
// session manager's pools.
func (f *consumerFleet) stop() {
	f.once.Do(func() {
		f.cancel()
		f.wg.Wait()
		f.mu.Lock()
		cores := f.cores
		f.mu.Unlock()
		for _, c := range cores {
			c.stop()
		}
	})
}

// ---------------------------------------------------------------- producers

// runProducer is the single producer loop. The flow mode decides how each
// publish is admitted (confirm slot, closed-loop window, pacing floor) and
// how the instance completes (confirm drain, reply budget, nothing). Each
// leg is a session from the run's session manager.
func runProducer(ctx context.Context, cfg *Config, topo *Topology, mgr *sessionManager, p int,
	col *metrics.Collector, ep *engineProbes, prog *progress, replied *atomic.Int64) error {
	role := &topo.Producer
	produced := col.ProducedShard(p)
	roleProduced := ep.registry.Counter("pattern.produced", "role="+role.Name).Shard(p)
	// Each published message raises the in-flight gauge by the counted
	// deliveries it will cause; the counting role (or the reply tally,
	// for pure closed-loop patterns) lowers it as they land.
	inflightPerMsg := int64(1)
	if ep.countingInflight && role.PacePerMsg > 1 {
		inflightPerMsg = int64(role.PacePerMsg)
	}
	legs := role.Legs(p)
	if len(legs) == 0 {
		return fmt.Errorf("pattern: %s %d: no publish legs", role.Name, p)
	}
	sessions := make([]*amqp.Session, len(legs))
	for j, leg := range legs {
		s, release, err := mgr.session(false, leg.anchor())
		if err != nil {
			return err
		}
		defer release()
		sessions[j] = s
	}

	var cw *confirmWindow
	var err error
	if role.Mode == FlowConfirm {
		if len(legs) != 1 {
			return fmt.Errorf("pattern: %s: confirm mode supports exactly one leg", role.Name)
		}
		if cw, err = newConfirmWindow(sessions[0].Channel, cfg.Window, ep.confirmLat); err != nil {
			return err
		}
	}

	budget := int64(cfg.MessagesPerProducer)
	perMsg := role.repliesPerMsg()
	var window chan struct{}
	var done chan error
	if role.Mode == FlowClosedLoop {
		window = make(chan struct{}, cfg.Window)
		done = make(chan error, 1)
		closeReplies, err := drainReplies(ctx, cfg, role, p, sessions, col, ep, replied, window, done, budget*int64(perMsg))
		if closeReplies != nil {
			// Releasing the reply sessions when this producer finishes
			// ends their drainer goroutines, before the legs themselves
			// are released.
			defer closeReplies()
		}
		if err != nil {
			return err
		}
	}

	gen := workload.NewGenerator(cfg.Workload, p)
	send := func(seq uint64) error {
		body, err := gen.Payload(seq)
		if err != nil {
			return err
		}
		var pub amqp.Publishing
		if role.Props != nil {
			pub = role.Props(p, seq)
		}
		if pub.ContentType == "" {
			pub.ContentType = "application/octet-stream"
		}
		pub.Body = body
		if role.Mode != FlowConfirm {
			// RTT-measuring and paced modes stamp the send time; every
			// leg carries the same stamp so fan-out replies agree.
			pub.Timestamp = uint64(time.Now().UnixNano())
		}
		if cw != nil {
			return cw.publish(ctx, legs[0].Exchange, legs[0].Key, seq, pub)
		}
		for j, leg := range legs {
			if err := sessions[j].Publish(leg.Exchange, leg.Key, false, false, pub); err != nil {
				return err
			}
		}
		return nil
	}

	for seq := uint64(0); seq < uint64(cfg.MessagesPerProducer); seq++ {
		switch role.Mode {
		case FlowClosedLoop:
			select {
			case window <- struct{}{}: // cap outstanding requests
			case <-ctx.Done():
				return fmt.Errorf("pattern: %s %d stalled at message %d: %w", role.Name, p, seq, ctx.Err())
			}
		case FlowPaced:
			if seq >= uint64(cfg.Window) {
				// Stay at most Window messages ahead of the aggregate
				// delivery count so no subscriber queue overflows.
				floor := int64(seq-uint64(cfg.Window)+1) * int64(role.PacePerMsg)
				if err := prog.WaitAtLeast(ctx, floor); err != nil {
					return fmt.Errorf("pattern: %s stalled: %w", role.Name, err)
				}
			}
		default:
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := send(seq); err != nil {
			return err
		}
		ep.inflight.Add(inflightPerMsg)
		if cw != nil {
			// Republish anything the broker rejected under backpressure.
			for _, again := range cw.takeNacked() {
				col.AddErrors(1)
				time.Sleep(time.Millisecond) // §5.2: detect, back off, retry
				if err := send(again); err != nil {
					return err
				}
			}
		}
		produced.Add(1)
		roleProduced.Inc()
	}

	switch role.Mode {
	case FlowConfirm:
		// Flush the window, retrying stragglers until everything lands.
		for {
			if err := cw.drain(ctx); err != nil {
				return err
			}
			retries := cw.takeNacked()
			if len(retries) == 0 {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("pattern: %s %d could not place %d messages: %w", role.Name, p, len(retries), err)
			}
			for _, again := range retries {
				col.AddErrors(1)
				time.Sleep(2 * time.Millisecond)
				if err := send(again); err != nil {
					return err
				}
			}
		}
	case FlowClosedLoop:
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			return fmt.Errorf("pattern: %s %d timed out awaiting replies: %w", role.Name, p, ctx.Err())
		}
	}
	return nil
}

// drainReplies starts the closed-loop reply pump: one consuming channel per
// reply source feeding a shared tally that records RTTs, releases a window
// slot per completed message, and signals done at the reply budget. Reply
// sessions open as siblings of the source's leg (same physical transport);
// the returned closer — non-nil even on error — releases them once the
// producer completes. A reply stream closing mid-run (connection death)
// fails the producer immediately rather than letting it wait out the run
// deadline.
func drainReplies(ctx context.Context, cfg *Config, role *ProducerRole, p int,
	legs []*amqp.Session, col *metrics.Collector, ep *engineProbes, replied *atomic.Int64,
	window chan struct{}, done chan error, want int64) (func(), error) {
	sources := role.Replies(p)
	events := make(chan uint64, 4*cfg.Window)
	streamClosed := make(chan int, len(sources))
	var replySessions []*amqp.Session
	closeAll := func() {
		for _, s := range replySessions {
			s.Close()
		}
	}
	for k, src := range sources {
		sib, err := legs[src.Leg].Sibling()
		if err != nil {
			return closeAll, err
		}
		replySessions = append(replySessions, sib)
		deliveries, err := sib.Consume(src.Queue, fmt.Sprintf("%s-reply-%d-%d", role.Name, p, k), true, false, false, false, nil)
		if err != nil {
			return closeAll, err
		}
		k := k
		go func() {
			for d := range deliveries {
				select {
				case events <- d.Timestamp:
				case <-ctx.Done():
					return
				}
			}
			streamClosed <- k
		}()
	}
	perMsg := int64(role.repliesPerMsg())
	go func() {
		var got int64
		// take tallies one reply; true once the budget is met.
		take := func(ts uint64) bool {
			rtt := time.Duration(time.Now().UnixNano() - int64(ts))
			if rtt > 0 {
				col.AddRTT(rtt)
			}
			replied.Add(1)
			got++
			if got%perMsg == 0 {
				<-window
				if !ep.countingInflight {
					// No counting role drains the in-flight gauge for
					// this pattern; a completed message does.
					ep.inflight.Add(-1)
				}
			}
			return got >= want
		}
		for {
			select {
			case ts := <-events:
				if take(ts) {
					done <- nil
					return
				}
			case k := <-streamClosed:
				// Drain replies already buffered before declaring the
				// stream dead — the close may race the final deliveries.
				for {
					select {
					case ts := <-events:
						if take(ts) {
							done <- nil
							return
						}
						continue
					default:
					}
					break
				}
				done <- fmt.Errorf("pattern: %s %d: reply stream %d closed after %d/%d replies",
					role.Name, p, k, got, want)
				return
			case <-ctx.Done():
				done <- fmt.Errorf("pattern: %s %d: %d/%d replies: %w", role.Name, p, got, want, ctx.Err())
				return
			}
		}
	}()
	return closeAll, nil
}
