package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/cluster"
	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/workload"
)

// Report is the outcome of one executed scenario.
type Report struct {
	// Spec is the scenario as run.
	Spec Spec
	// Result merges the metrics of every run; nil when Infeasible.
	Result *metrics.Result
	// P50, P95 and P99 are round-trip latency percentiles read from the
	// merged streaming histogram (zero when the pattern measures none).
	P50, P95, P99 time.Duration
	// Timeline is the scenario's consumer-throughput time series
	// (msgs/sec per aggregator tick, one second by default). Runs
	// shorter than a tick still yield at least one point from the
	// aggregator's final flush.
	Timeline []telemetry.Point
	// Infeasible marks configurations the architecture cannot run (the
	// paper's missing Stunnel points beyond 16 connections).
	Infeasible bool
	// Faults snapshots the injector activity when a fault script ran, so
	// callers can assert the scripted faults actually fired.
	Faults transport.Stats
	// BrokerRestarts counts completed crash/restart cycles of the broker
	// tier (the broker-restart fault), so callers can assert the outage
	// actually happened.
	BrokerRestarts int
	// NodeKills counts completed node-kill failovers (one queue-master
	// hard-killed and its queues reassigned to survivors). Rolling kills
	// count each completed step.
	NodeKills int
	// Promotions counts replicated-queue mirror promotions during the
	// scenario: a master kill resolved by flipping an in-sync standby
	// into the live queue instead of relocating segment logs.
	Promotions int64
	// MirrorCatchups counts mirrors that joined mid-stream and resynced
	// from their master's log (a restarted or rebalanced node re-entering
	// the replica set).
	MirrorCatchups int64
	// Redirects counts the connection-level master redirects clients
	// followed during the scenario (re-dialing the address a broker's
	// connection.close 302 named).
	Redirects int64
	// FederatedMsgs counts publishes forwarded between cluster nodes
	// over federation links during the scenario.
	FederatedMsgs int64
	// HealthEvents is the health-rule transition log: every state change
	// (ok→warn, warn→critical, …) the scenario's health monitor observed
	// across its ticks, in order. Empty for a healthy run.
	HealthEvents []telemetry.HealthEvent
}

// Option tunes scenario execution (telemetry cadence, live watching).
type Option func(*options)

type options struct {
	tick        time.Duration // aggregator sampling period (0 = one second); tests shorten it
	watch       func(telemetry.Tick)
	healthWatch func(telemetry.HealthEvent)
	forwarder   TickForwarder
}

// TickForwarder receives the scenario's telemetry stream for off-box
// shipping: every aggregator rollup, every health transition, and one
// final registry snapshot. *forwarder.Forwarder implements it; the
// scenario layer stays decoupled from the wire format.
type TickForwarder interface {
	ForwardTick(telemetry.Tick)
	ForwardHealth(telemetry.HealthEvent)
	ForwardSnapshot(*telemetry.Snapshot)
}

// WithWatch installs a live rollup callback, invoked once per
// aggregator tick with the current rates (consumed/produced msgs/sec,
// errors, fault and reconnect counts). `streamsim scenario -watch`
// prints these.
func WithWatch(fn func(telemetry.Tick)) Option {
	return func(o *options) { o.watch = fn }
}

// WithHealthWatch installs a live health-transition callback, invoked
// (on the aggregator's tick goroutine) for every rule state change.
// `streamsim scenario -watch` prints these alongside the rollups.
func WithHealthWatch(fn func(telemetry.HealthEvent)) Option {
	return func(o *options) { o.healthWatch = fn }
}

// WithForwarder streams the scenario's ticks, health transitions, and
// final snapshot into fw (normally a *forwarder.Forwarder shipping to
// an off-box collector). The caller owns the forwarder's lifecycle —
// Stop it after the scenario returns to flush the tail.
func WithForwarder(fw TickForwarder) Option {
	return func(o *options) { o.forwarder = fw }
}

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// liveMetrics exposes a scenario's metrics to the aggregator while
// runs are in flight: the current run's collector plus the totals of
// completed runs. A mutex keeps the end-of-run fold atomic with
// respect to tick reads — this is the once-per-tick sampling path, not
// the per-message hot path, so a lock is fine and keeps the counter
// sources monotonic (no double-count or dip around run boundaries that
// would show up as negative rates).
type liveMetrics struct {
	mu           sync.Mutex
	cur          *metrics.Collector
	baseConsumed int64
	baseProduced int64
	baseErrors   int64
}

// read adds the current run's count to the completed runs' total.
func (lm *liveMetrics) read(base *int64, cur func(*metrics.Collector) int64) int64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.cur == nil {
		return *base
	}
	return *base + cur(lm.cur)
}

func (lm *liveMetrics) consumed() int64 {
	return lm.read(&lm.baseConsumed, (*metrics.Collector).ConsumedTotal)
}
func (lm *liveMetrics) produced() int64 {
	return lm.read(&lm.baseProduced, (*metrics.Collector).ProducedTotal)
}
func (lm *liveMetrics) errors() int64 {
	return lm.read(&lm.baseErrors, (*metrics.Collector).ErrorsTotal)
}

// beginRun points the live view at a fresh collector.
func (lm *liveMetrics) beginRun(col *metrics.Collector) {
	lm.mu.Lock()
	lm.cur = col
	lm.mu.Unlock()
}

// endRun folds the finished run into the completed-run totals.
func (lm *liveMetrics) endRun(col *metrics.Collector) {
	lm.mu.Lock()
	lm.baseConsumed += col.ConsumedTotal()
	lm.baseProduced += col.ProducedTotal()
	lm.baseErrors += col.ErrorsTotal()
	lm.cur = nil
	lm.mu.Unlock()
}

// since reads the named process-wide counter as its growth since the
// call, so a scenario reports its own activity, not the process's
// lifetime total (a sweep runs many scenarios in one process).
func since(name string) func() int64 {
	c := telemetry.Default.Counter(name)
	base := c.Load()
	return func() int64 { return c.Load() - base }
}

// observe registers the scenario's rollup sources and returns their
// names, so teardown can Unobserve each one before the probes it reads
// go away. cumulative holds the baselined process-wide counters (see
// since), each sampled as a gauge under its key; injector stats shared
// across a sweep are baselined here the same way.
func (lm *liveMetrics) observe(agg *telemetry.Aggregator, inj *transport.Injector, cumulative map[string]func() int64) []string {
	names := []string{
		"consumed", "produced", "errors", "federation_links", "queue_depth",
		"sessions", "conns", "goroutines",
		"mirror_lag", "insync_mirrors", "underreplicated",
	}
	agg.ObserveCounter("consumed", lm.consumed)
	agg.ObserveCounter("produced", lm.produced)
	agg.ObserveGauge("errors", lm.errors)
	for name, read := range cumulative {
		agg.ObserveGauge(name, read)
		names = append(names, name)
	}
	// Health-check sources: the live federation link count (the flap
	// rule watches it drop) and the total broker backlog summed across
	// every queue's tagged depth gauge.
	fedLinks := telemetry.Default.Gauge("cluster.federation_links")
	agg.ObserveGauge("federation_links", fedLinks.Load)
	agg.ObserveGauge("queue_depth", func() int64 {
		return telemetry.Default.SumGauges("broker.queue_depth")
	})
	// Replication sources: the live mirror gauges the under-replicated
	// health rule watches.
	agg.ObserveGauge("mirror_lag", telemetry.Default.Gauge("cluster.mirror_lag").Load)
	agg.ObserveGauge("insync_mirrors", telemetry.Default.Gauge("cluster.insync_mirrors").Load)
	agg.ObserveGauge("underreplicated", telemetry.Default.Gauge("cluster.underreplicated_queues").Load)
	if inj != nil {
		injBase := inj.Stats()
		agg.ObserveGauge("flaps", func() int64 { return int64(inj.Stats().Flaps - injBase.Flaps) })
		agg.ObserveGauge("resets", func() int64 { return int64(inj.Stats().Resets - injBase.Resets) })
		names = append(names, "flaps", "resets")
	}
	// Client-runtime cost: how many logical clients are multiplexed onto
	// how many sockets, and what the whole process costs in goroutines.
	// Mirrors the client_sessions/client_conns/goroutines gauges in
	// telemetry.Default, sampled into this scenario's timeline.
	agg.ObserveGauge("sessions", amqp.PoolSessions)
	agg.ObserveGauge("conns", amqp.PoolConns)
	agg.ObserveGauge("goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	return names
}

// Run executes the scenario end to end: validate, deploy the declared
// architecture (with the fault injector composed into every client path
// when the spec scripts faults), run the pattern Runs times, and merge the
// results. The context cancels or deadline-bounds the whole scenario.
// A telemetry aggregator runs alongside: the Report carries latency
// percentiles and a per-second throughput timeline, and WithWatch
// delivers each rollup live.
func Run(ctx context.Context, spec Spec, opts ...Option) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dep, inj, teardown, err := deploy(spec)
	if err != nil {
		return nil, err
	}
	defer teardown()
	return runOn(ctx, dep, inj, spec, buildOptions(opts))
}

// deploy stands up the spec's deployment, with durable storage in a fresh
// temporary directory when the spec declares durability but names none,
// and the fault injector composed into every client path when the spec
// scripts transport faults. teardown closes it and removes that directory.
func deploy(spec Spec) (dep core.Deployment, inj *transport.Injector, teardown func(), err error) {
	opts := spec.options()
	cleanup := func() {}
	if spec.Deployment.Durability != nil && opts.DataDir == "" {
		dir, err := os.MkdirTemp("", "ds2hpc-durable-")
		if err != nil {
			return nil, nil, nil, fmt.Errorf("scenario: durability temp dir: %w", err)
		}
		opts.DataDir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	if spec.needsInjector() {
		inj = transport.NewInjector()
		opts.Faults = inj
	}
	dep, err = core.Deploy(core.ArchitectureName(spec.Deployment.Architecture), opts)
	if err != nil {
		cleanup()
		return nil, nil, nil, fmt.Errorf("scenario: deploy %s: %w", spec.Deployment.Architecture, err)
	}
	return dep, inj, func() { dep.Close(); cleanup() }, nil
}

// RunOn executes the scenario's workload, pattern, counts and tuning on an
// existing deployment (reused across the points of a sweep); the spec's
// Deployment section is ignored. Fault scripts need the injector composed
// at deploy time, so they are only available through Run.
func RunOn(ctx context.Context, dep core.Deployment, spec Spec, opts ...Option) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Faults) > 0 {
		return nil, fmt.Errorf("%w: fault scripts require scenario.Run (the injector is composed at deploy time)", ErrBadSpec)
	}
	return runOn(ctx, dep, nil, spec, buildOptions(opts))
}

func runOn(ctx context.Context, dep core.Deployment, inj *transport.Injector, spec Spec, o options) (*Report, error) {
	w, err := spec.workload()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	var faultsBefore transport.Stats
	if inj != nil {
		faultsBefore = inj.Stats()
	}
	cfg := pattern.Config{
		Deployment:          dep,
		Workload:            w,
		Producers:           spec.Producers,
		Consumers:           spec.Consumers,
		MessagesPerProducer: spec.MessagesPerProducer,
		WorkQueues:          spec.Tuning.WorkQueues,
		Prefetch:            spec.Tuning.Prefetch,
		AckBatch:            spec.Tuning.AckBatch,
		Window:              spec.Tuning.Window,
		QueueBytes:          spec.Tuning.QueueBytes,
		GoroutineBudget:     spec.Tuning.GoroutineBudget,
		Timeout:             spec.timeout(),
	}

	// One baselined reader per process-wide counter feeds both its
	// rollup and its Report field.
	redirects := since("amqp.redirects")
	federated := since("cluster.federation_msgs")
	promoted := since("cluster.promotions")
	catchups := since("cluster.mirror_catchups")

	// The aggregator spans all of the scenario's runs: the timeline is
	// the scenario's, with completed-run totals folded into the rates.
	lm := &liveMetrics{}
	agg := telemetry.NewAggregator(o.tick)
	sources := lm.observe(agg, inj, map[string]func() int64{
		"reconnects":      since("amqp.reconnects"),
		"redirects":       redirects,
		"federated":       federated,
		"promotions":      promoted,
		"mirror_catchups": catchups,
	})
	// Unobserve after the deferred final Stop (defers run LIFO): the
	// sources read closures over this scenario's deployment, and a
	// sweep's next cell re-registers its own under the same names.
	defer func() {
		for _, name := range sources {
			agg.Unobserve(name)
		}
	}()

	// Every scenario runs under health rules — the spec's, or the
	// default catalog. Each tick is evaluated before the watch callback
	// sees it, and transitions stream to the health watcher and the
	// forwarder as they fire.
	rules := spec.Health
	if len(rules) == 0 {
		rules = DefaultHealthRules()
	}
	mon := telemetry.NewHealthMonitor(rules)
	agg.OnTick(func(t telemetry.Tick) {
		events := mon.Eval(t)
		for _, ev := range events {
			if o.forwarder != nil {
				o.forwarder.ForwardHealth(ev)
			}
			if o.healthWatch != nil {
				o.healthWatch(ev)
			}
		}
		if o.forwarder != nil {
			o.forwarder.ForwardTick(t)
		}
		if o.watch != nil {
			o.watch(t)
		}
	})
	agg.Start()
	defer agg.Stop()

	restarts, kills := 0, 0
	watch := crashWatcher(dep, spec, &restarts, &kills)
	var runs []*metrics.Result
	for r := 0; r < spec.runs(); r++ {
		if inj != nil {
			armFaults(inj, spec, w)
		}
		col := metrics.NewCollector()
		cfg.Collector = col
		lm.beginRun(col)
		stopWatch := func() {}
		if watch != nil {
			// The watcher must finish (including the restart half of a
			// broker-restart cycle) before dep.Close, or a restarted node
			// would leak.
			stop := make(chan struct{})
			done := make(chan struct{})
			base := lm.consumed()
			go func() {
				defer close(done)
				watch(func() int64 { return lm.consumed() - base }, stop)
			}()
			stopWatch = func() { close(stop); <-done }
		}
		res, err := pattern.Run(ctx, spec.Pattern, cfg)
		stopWatch()
		lm.endRun(col)
		if errors.Is(err, pattern.ErrInfeasible) {
			return &Report{Spec: spec, Infeasible: true}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: %s/%s run %d: %w", dep.Name(), spec.Pattern, r, err)
		}
		runs = append(runs, res)
	}
	agg.Stop() // final flush, so sub-tick runs still get a point

	merged := metrics.Merge(runs)
	rep := &Report{
		Spec:     spec,
		Result:   merged,
		Timeline: agg.Series("consumed"),
	}
	if merged.RTTCount() > 0 {
		rep.P50 = merged.PercentileRTT(50)
		rep.P95 = merged.PercentileRTT(95)
		rep.P99 = merged.PercentileRTT(99)
	}
	if inj != nil {
		// Report the delta over this scenario's runs, not the injector's
		// lifetime totals (a Sweep reuses one injector across points).
		rep.Faults = statsDelta(faultsBefore, inj.Stats())
	}
	rep.BrokerRestarts = restarts
	rep.NodeKills = kills
	rep.Redirects = redirects()
	rep.FederatedMsgs = federated()
	rep.Promotions = promoted()
	rep.MirrorCatchups = catchups()
	rep.HealthEvents = mon.Events()
	if o.forwarder != nil {
		o.forwarder.ForwardSnapshot(telemetry.Default.Snapshot())
	}
	return rep, nil
}

// crashWatcher returns the watcher of the spec's broker-restart, node-kill
// or rolling-node-kill fault (Validate allows at most one of them), or nil
// when none is declared. A node-kill is a rolling kill of one victim. The
// watcher polls the run's consumed count until stop closes; completed
// cycles count into *restarts or *kills.
func crashWatcher(dep core.Deployment, spec Spec, restarts, kills *int) func(consumed func() int64, stop <-chan struct{}) {
	total := spec.totalMessages()
	for _, f := range spec.Faults {
		switch f.Kind {
		case FaultBrokerRestart:
			return func(consumed func() int64, stop <-chan struct{}) {
				watchBrokerRestart(dep, f, int64(f.AtFraction*float64(total)), consumed, stop, restarts)
			}
		case FaultNodeKill:
			f.Count = 1
			fallthrough
		case FaultRollingNodeKill:
			return func(consumed func() int64, stop <-chan struct{}) {
				watchRollingNodeKill(dep, f, total, spec.Deployment.ReplicationFactor, consumed, stop, kills)
			}
		}
	}
	return nil
}

// waitUntil polls ready every millisecond until it holds (true) or stop
// closes first (false).
func waitUntil(ready func() bool, stop <-chan struct{}) bool {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !ready() {
		select {
		case <-stop:
			return false
		case <-tick.C:
		}
	}
	return true
}

// watchBrokerRestart executes one broker-restart fault cycle: wait for the
// run's consumed count to cross the threshold, hard-kill every broker
// node, wait out the outage, and bring the nodes back on their original
// addresses. The stop channel abandons the wait (run over), but a crash
// that already happened always completes its restart half so the
// deployment is never left dead. Completed cycles increment *restarts,
// which the caller reads only after the watcher is done.
func watchBrokerRestart(dep core.Deployment, f Fault, at int64,
	consumed func() int64, stop <-chan struct{}, restarts *int) {
	down := time.Duration(f.DownMS) * time.Millisecond
	if down <= 0 {
		down = 50 * time.Millisecond
	}
	if !waitUntil(func() bool { return consumed() >= at }, stop) {
		return
	}
	cl := dep.Cluster()
	n := cl.Size()
	for i := 0; i < n; i++ {
		cl.Crash(i)
	}
	time.Sleep(down)
	ok := true
	for i := 0; i < n; i++ {
		if err := cl.Restart(i); err != nil {
			ok = false // the run will fail and report; nothing to clean up
		}
	}
	if ok {
		*restarts++
	}
}

// watchRollingNodeKill executes a rolling kill schedule: the k-th victim
// dies once the run's consumed count crosses at_fraction + k·every_fraction
// of the production budget, and its queues fail over to survivors. The
// first victim is the fault's explicit pick or the busiest master; each
// subsequent victim is the node the previous failover moved the most
// queues onto — the schedule chases the promoted masters, the worst case
// for a replicated deployment. Like a rolling restart waiting for
// readiness, a later victim also waits, while enough nodes survive to hold
// rf copies, until every queue the previous failover moved has rf-1
// in-sync mirrors again (for at most resyncWait): killed without one, the
// queue relocates. Killed nodes stay down for the rest of the run; clients
// ride the failover through seed rotation and redirects. Each completed
// kill increments *kills, which the caller reads only after the watcher is
// done.
func watchRollingNodeKill(dep core.Deployment, f Fault, total int64, rf int,
	consumed func() int64, stop <-chan struct{}, kills *int) {
	const resyncWait = 2 * time.Second
	cl := dep.Cluster()
	resynced := func() bool { return true }
	victim := -1
	if f.Node != nil {
		victim = *f.Node
	}
	for k := 0; k < f.Count; k++ {
		at := int64((f.AtFraction + float64(k)*f.EveryFraction) * float64(total))
		if !waitUntil(func() bool { return consumed() >= at && resynced() }, stop) {
			return
		}
		if victim < 0 {
			busiest, ok := cl.Directory().Busiest()
			if !ok {
				return
			}
			victim = busiest
		}
		moved, err := cl.Kill(victim)
		if err != nil {
			return
		}
		*kills++
		if cl.Size()-*kills >= rf {
			deadline := time.Now().Add(resyncWait)
			resynced = func() bool {
				return time.Now().After(deadline) || !slices.ContainsFunc(moved, func(q cluster.QueueInfo) bool {
					return q.Durable && cl.InSyncMirrors(q.VHost, q.Name) < rf-1
				})
			}
		}
		// The next victim is the node the failover promoted the most
		// queues onto; -1 (nothing moved) falls back to the busiest
		// master when the next threshold arrives.
		counts := make(map[int]int)
		victim = -1
		best := 0
		for _, q := range moved {
			counts[q.Node]++
			if counts[q.Node] > best {
				victim, best = q.Node, counts[q.Node]
			}
		}
	}
}

// statsDelta subtracts two injector snapshots.
func statsDelta(before, after transport.Stats) transport.Stats {
	return transport.Stats{
		Dials:   after.Dials - before.Dials,
		Refused: after.Refused - before.Refused,
		Resets:  after.Resets - before.Resets,
		Flaps:   after.Flaps - before.Flaps,
		Bytes:   after.Bytes - before.Bytes,
	}
}

// Sweep runs the scenario across consumer counts (a figure's x-axis) on
// one shared deployment, one cell after another.
// Producers scale with consumers except for single-producer patterns,
// matching §5.2 ("all other tests were performed with an equal number of
// producers and consumers"). A fault script, when present, is re-armed
// for every point. Points already collected are returned alongside the
// first error.
func Sweep(ctx context.Context, spec Spec, consumerCounts []int, opts ...Option) ([]*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	singleProducer := false
	if g, ok := pattern.Lookup(spec.Pattern); ok {
		singleProducer = g.SingleProducer
	}
	dep, inj, teardown, err := deploy(spec)
	if err != nil {
		return nil, err
	}
	defer teardown()
	o := buildOptions(opts)
	var points []*Report
	for _, n := range consumerCounts {
		s := spec
		s.Consumers, s.Producers = n, n
		if singleProducer {
			s.Producers = 1
		}
		rep, err := runOn(ctx, dep, inj, s, o)
		if err != nil {
			return points, err
		}
		points = append(points, rep)
	}
	return points, nil
}

// armFaults programs the injector for one run. Byte thresholds are armed
// relative to the traffic already counted, so multi-run scenarios re-fire
// their script each run.
func armFaults(inj *transport.Injector, spec Spec, w workload.Workload) {
	total := spec.totalMessages() * int64(w.PayloadBytes)
	for _, f := range spec.Faults {
		down := time.Duration(f.DownMS) * time.Millisecond
		if down <= 0 {
			down = 50 * time.Millisecond
		}
		switch f.Kind {
		case FaultFlap:
			at := f.AtBytes
			if at <= 0 {
				at = int64(f.AtFraction * float64(total))
			}
			inj.FlapAfterBytes(at, down)
		case FaultFlapEvery:
			every := f.EveryBytes
			if every <= 0 {
				every = int64(f.EveryFraction * float64(total))
			}
			inj.FlapEveryBytes(every, down, f.Count)
		case FaultLatencySpike:
			inj.SetLatencySpike(time.Duration(f.LatencyMS) * time.Millisecond)
		}
	}
}
