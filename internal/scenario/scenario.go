// Package scenario is the declarative experiment surface: one
// JSON-serializable Spec declares a whole data point of the paper's
// evaluation grid — deployment (architecture, nodes, fabric profile),
// workload, pattern, client counts, tuning knobs, fault script, and run
// count — and Run(ctx, Spec) executes it through the pattern role engine.
// Command-line drivers, tests, and the figure harness all speak Spec, so a
// new scenario is a value (or a .json file) rather than new plumbing.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/core"
	"ds2hpc/internal/fabric"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/workload"
)

// ErrBadSpec reports a Spec rejected by validation before any deployment
// or client work starts.
var ErrBadSpec = errors.New("scenario: invalid spec")

// Spec declares one experiment scenario end to end. The zero value of
// every optional field means "use the default", so a minimal spec is just
// an architecture, a workload, a pattern, and a message budget.
type Spec struct {
	// Name labels the scenario in reports and logs.
	Name string `json:"name,omitempty"`
	// Deployment declares the architecture under test.
	Deployment Deployment `json:"deployment"`
	// Workload selects the Table 1 row (and optional payload scaling).
	Workload Workload `json:"workload"`
	// Pattern names a registered pattern role graph (pattern.Names()).
	Pattern string `json:"pattern"`
	// Producers and Consumers are the client counts (default 1 each;
	// single-producer patterns force Producers to 1).
	Producers int `json:"producers,omitempty"`
	Consumers int `json:"consumers,omitempty"`
	// MessagesPerProducer is the per-producer message budget (required).
	MessagesPerProducer int `json:"messages_per_producer"`
	// Runs is the number of runs merged into one data point (default 1).
	Runs int `json:"runs,omitempty"`
	// Tuning carries the messaging knobs of §5.2.
	Tuning Tuning `json:"tuning,omitempty"`
	// Faults is the scripted WAN fault sequence armed before each run.
	Faults []Fault `json:"faults,omitempty"`
	// Health overrides the default health-rule set evaluated against
	// every aggregator tick (DefaultHealthRules when empty). Transitions
	// land in Report.HealthEvents.
	Health []telemetry.HealthRule `json:"health,omitempty"`
	// TimeoutMS bounds each whole run end to end — setup, production,
	// and the final drain share one deadline (default 120000).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Deployment declares the architecture, cluster size and fabric profile.
type Deployment struct {
	// Architecture is one of core.AllArchitectures.
	Architecture string `json:"architecture"`
	// Nodes is the broker cluster size (default 3).
	Nodes int `json:"nodes,omitempty"`
	// ClusterNodes, when positive, runs that many nodes as a clustered
	// data plane: ring placement assigns every queue a master, declares
	// and default-exchange publishes for remotely-mastered queues are
	// federated to the master node, mis-routed consumers are redirected,
	// and node-kill faults fail mastered queues over to survivors.
	// Mutually exclusive with Nodes (which keeps the nodes independent
	// placement-sharing brokers).
	ClusterNodes int `json:"cluster_nodes,omitempty"`
	// FabricScale scales the emulated ACE testbed rates (1.0 = paper
	// rates; default 1.0).
	FabricScale float64 `json:"fabric_scale,omitempty"`
	// MemoryLimitBytes bounds ready bytes per broker vhost.
	MemoryLimitBytes int64 `json:"memory_limit_bytes,omitempty"`
	// DisableClientShaping turns off per-connection client NIC links.
	DisableClientShaping bool `json:"disable_client_shaping,omitempty"`
	// FastControlPlane zeroes the per-connection LB setup and route
	// lookup costs (useful for protocol-focused scenarios and tests).
	FastControlPlane bool `json:"fast_control_plane,omitempty"`
	// BypassLB lets MSS consumers skip the load balancer (§6 proposal).
	BypassLB bool `json:"bypass_lb,omitempty"`
	// Reconnect enables bounded client auto-reconnect, required for runs
	// that must survive injected faults.
	Reconnect *Reconnect `json:"reconnect,omitempty"`
	// Durability enables durable queue storage on every broker node,
	// required by broker-restart faults and replay patterns.
	Durability *Durability `json:"durability,omitempty"`
	// ReplicationFactor R >= 2 gives every durable queue R-1 synchronous
	// mirrors on distinct cluster nodes: producer confirms wait for the
	// in-sync mirror set, and a master kill promotes the most-advanced
	// in-sync mirror instead of relocating segment logs. Requires
	// cluster_nodes >= R and durability.
	ReplicationFactor int `json:"replication_factor,omitempty"`
}

// Durability mirrors seglog.Options in JSON-friendly units. Declaring it
// (even empty) turns durable storage on for every broker node.
type Durability struct {
	// DataDir roots the brokers' durable storage; empty uses a fresh
	// temporary directory removed when the scenario finishes.
	DataDir string `json:"data_dir,omitempty"`
	// Fsync is the segment-log sync policy: "never" (default), "always"
	// (confirm implies durable) or "interval".
	Fsync string `json:"fsync,omitempty"`
	// FsyncIntervalMS is the interval policy's cadence (default 50).
	FsyncIntervalMS int64 `json:"fsync_interval_ms,omitempty"`
	// SegmentBytes caps each segment file (default 8 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// RetainAll keeps fully-acked segments instead of compacting them —
	// required by replay patterns that read history from offset 0.
	RetainAll bool `json:"retain_all,omitempty"`
}

// Reconnect mirrors amqp.ReconnectPolicy in JSON-friendly units.
type Reconnect struct {
	MaxAttempts int   `json:"max_attempts,omitempty"`
	DelayMS     int64 `json:"delay_ms,omitempty"`
	MaxDelayMS  int64 `json:"max_delay_ms,omitempty"`
}

// Workload selects a Table 1 workload with optional payload scaling.
type Workload struct {
	// Name is "Dstream", "Lstream" or "generic".
	Name string `json:"name"`
	// PayloadDivisor shrinks the payload (workload.Scaled) so scaled
	// fabrics keep the paper's payload-to-bandwidth ratio.
	PayloadDivisor int `json:"payload_divisor,omitempty"`
	// PayloadBytes overrides the payload size outright when positive.
	PayloadBytes int `json:"payload_bytes,omitempty"`
}

// Tuning mirrors the pattern.Config knobs; zero values use defaults.
type Tuning struct {
	WorkQueues int   `json:"work_queues,omitempty"`
	Prefetch   int   `json:"prefetch,omitempty"`
	AckBatch   int   `json:"ack_batch,omitempty"`
	Window     int   `json:"window,omitempty"`
	QueueBytes int64 `json:"queue_bytes,omitempty"`
	// GoroutineBudget bounds the client runtime: role channels multiplex
	// onto pooled connections and the whole client fleet stays within
	// this many goroutines. Zero is unbounded, one socket per role
	// instance (see pattern.Config.GoroutineBudget). Required for
	// 10⁴+-client specs.
	GoroutineBudget int `json:"goroutine_budget,omitempty"`
}

// Fault kinds.
const (
	// FaultFlap is a one-shot link flap (all connections reset, dials
	// refused for DownMS) fired once the run's traffic crosses AtBytes
	// or AtFraction of the scenario's total payload volume.
	FaultFlap = "flap"
	// FaultFlapEvery re-fires a flap every EveryBytes (or EveryFraction
	// of total payload volume), at most Count times.
	FaultFlapEvery = "flap-every"
	// FaultLatencySpike adds LatencyMS of delay to every write for the
	// whole run.
	FaultLatencySpike = "latency-spike"
	// FaultBrokerRestart hard-kills every broker node (SIGKILL semantics:
	// unfsynced data is lost, connections drop without teardown) once the
	// run's consumed-message count crosses AtFraction of the production
	// budget, then restarts the nodes on their original addresses after
	// DownMS. Requires deployment.durability (so queues recover) and
	// deployment.reconnect (so clients survive the outage).
	FaultBrokerRestart = "broker-restart"
	// FaultNodeKill is a rolling-node-kill of one victim that also runs
	// without replication: the dead master's queues then relocate with
	// their segment logs (shared-storage failover) and replay on the new
	// master. Requires deployment.cluster_nodes >= 2, durability and
	// reconnect.
	FaultNodeKill = "node-kill"
	// FaultRollingNodeKill hard-kills Count broker nodes one after
	// another: the first (the master of the most queues unless Node picks
	// one) once consumed messages cross AtFraction of the production
	// budget, then another every EveryFraction of the budget — each
	// subsequent victim is the node the previous failover promoted the
	// most queues onto, so the schedule chases the data. Killed nodes stay
	// down. Requires deployment.replication_factor >= 2 (survival without
	// the dead nodes' disks), deployment.cluster_nodes > Count (a survivor
	// must remain), deployment.durability and deployment.reconnect.
	FaultRollingNodeKill = "rolling-node-kill"
)

// Fault is one step of the scripted WAN fault sequence. Byte-triggered
// kinds arm on traffic volume so scenarios stay deterministic regardless
// of how fast a run progresses.
type Fault struct {
	Kind string `json:"kind"`
	// AtBytes / AtFraction position a one-shot flap: an absolute byte
	// threshold, or a fraction (0,1] of the run's total payload bytes.
	AtBytes    int64   `json:"at_bytes,omitempty"`
	AtFraction float64 `json:"at_fraction,omitempty"`
	// EveryBytes / EveryFraction set the recurrence interval of a
	// flap-every fault; Count bounds the number of flaps (required).
	EveryBytes    int64   `json:"every_bytes,omitempty"`
	EveryFraction float64 `json:"every_fraction,omitempty"`
	Count         int     `json:"count,omitempty"`
	// DownMS is the outage duration of each flap, or how long crashed
	// brokers stay down before a broker-restart brings them back
	// (default 50).
	DownMS int64 `json:"down_ms,omitempty"`
	// LatencyMS is the added write delay of a latency spike.
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// Node picks the node-kill victim explicitly; nil kills the node
	// mastering the most queues when the fault fires.
	Node *int `json:"node,omitempty"`
}

// Decode reads one Spec as JSON, rejecting unknown fields so typo'd spec
// keys surface as errors instead of silently-defaulted knobs.
func Decode(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return spec, nil
}

// Load reads and decodes a spec file.
func Load(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	spec, err := Decode(f)
	if err != nil {
		return Spec{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return spec, nil
}

// PaperPoint is the Spec of one figure data point of §5 on the ACE fabric
// scaled by scale: three broker nodes with a 1 GiB memory limit, payloads
// shrunk by 8 in proportion to the scaled links, a confirm window of 4 (2
// for the feedback pattern, a closed loop where round-trip time rather
// than saturation should dominate, as in the paper's runs), and as many
// producers as consumers except for single-producer patterns. msgs is the
// Dstream budget per producer; Lstream and generic get a sixth and an
// eighth of it (at least 2), roughly the paper's ratio between workload
// sizes. Callers set Runs and TimeoutMS.
func PaperPoint(arch core.ArchitectureName, wl, pat string, consumers int, scale float64, msgs int) Spec {
	switch wl {
	case workload.Lstream.Name:
		msgs = max(2, msgs/6)
	case workload.Generic.Name:
		msgs = max(2, msgs/8)
	}
	producers := consumers
	if g, ok := pattern.Lookup(pat); ok && g.SingleProducer {
		producers = 1
	}
	window := 4
	if pat == pattern.FeedbackName {
		window = 2
	}
	return Spec{
		Deployment: Deployment{
			Architecture:     string(arch),
			Nodes:            3,
			FabricScale:      scale,
			MemoryLimitBytes: 1 << 30,
		},
		Workload:            Workload{Name: wl, PayloadDivisor: 8},
		Pattern:             pat,
		Producers:           producers,
		Consumers:           consumers,
		MessagesPerProducer: msgs,
		Tuning:              Tuning{Window: window},
	}
}

// Validate checks the spec without deploying anything. All reported
// problems wrap ErrBadSpec.
func (s Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if s.Deployment.Architecture != "" {
		known := false
		for _, a := range core.AllArchitectures {
			if string(a) == s.Deployment.Architecture {
				known = true
			}
		}
		if !known {
			return bad("unknown architecture %q (known: %v)", s.Deployment.Architecture, core.AllArchitectures)
		}
	} else {
		return bad("deployment.architecture is required")
	}
	if s.Workload.Name == "" {
		return bad("workload.name is required")
	}
	if _, err := workload.ByName(s.Workload.Name); err != nil {
		return bad("%v", err)
	}
	if s.Workload.PayloadDivisor < 0 || s.Workload.PayloadBytes < 0 {
		return bad("workload payload scaling must be non-negative")
	}
	g, ok := pattern.Lookup(s.Pattern)
	if !ok {
		return bad("unknown pattern %q (registered: %v)", s.Pattern, pattern.Names())
	}
	if d := s.Deployment.Durability; d != nil {
		if _, err := seglog.ParseFsync(d.Fsync); err != nil {
			return bad("durability: %v", err)
		}
		if d.FsyncIntervalMS < 0 || d.SegmentBytes < 0 {
			return bad("durability sizes must be non-negative")
		}
	}
	if g.NeedsDurability {
		if s.Deployment.Durability == nil {
			return bad("pattern %q replays durable history: deployment.durability is required", s.Pattern)
		}
		if !s.Deployment.Durability.RetainAll {
			return bad("pattern %q replays from offset 0: durability.retain_all must be true or compaction may drop the history", s.Pattern)
		}
	}
	if s.Producers < 0 || s.Consumers < 0 {
		return bad("negative client counts (producers=%d consumers=%d)", s.Producers, s.Consumers)
	}
	if s.MessagesPerProducer <= 0 {
		return bad("messages_per_producer must be positive, got %d", s.MessagesPerProducer)
	}
	if s.Runs < 0 {
		return bad("runs must be non-negative, got %d", s.Runs)
	}
	if s.TimeoutMS < 0 {
		return bad("timeout_ms must be non-negative, got %d", s.TimeoutMS)
	}
	if s.Tuning.GoroutineBudget < 0 {
		return bad("tuning.goroutine_budget must be non-negative, got %d", s.Tuning.GoroutineBudget)
	}
	if s.Deployment.Nodes < 0 || s.Deployment.FabricScale < 0 {
		return bad("deployment sizes must be non-negative")
	}
	if s.Deployment.ClusterNodes < 0 {
		return bad("deployment.cluster_nodes must be non-negative")
	}
	if s.Deployment.ClusterNodes > 0 && s.Deployment.Nodes > 0 {
		return bad("deployment.cluster_nodes and deployment.nodes are mutually exclusive")
	}
	if rf := s.Deployment.ReplicationFactor; rf != 0 {
		if rf < 2 {
			return bad("deployment.replication_factor must be >= 2 (R-1 mirrors), got %d", rf)
		}
		if s.Deployment.ClusterNodes < rf {
			return bad("deployment.replication_factor %d needs deployment.cluster_nodes >= %d (mirrors live on distinct nodes)", rf, rf)
		}
		if s.Deployment.Durability == nil {
			return bad("deployment.replication_factor mirrors segment logs: deployment.durability is required")
		}
	}
	flaps, crashes := 0, 0
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultFlap:
			if f.AtBytes <= 0 && (f.AtFraction <= 0 || f.AtFraction > 1) {
				return bad("faults[%d]: flap needs at_bytes > 0 or at_fraction in (0,1]", i)
			}
			flaps++
		case FaultFlapEvery:
			if f.EveryBytes <= 0 && (f.EveryFraction <= 0 || f.EveryFraction > 1) {
				return bad("faults[%d]: flap-every needs every_bytes > 0 or every_fraction in (0,1]", i)
			}
			if f.Count <= 0 {
				return bad("faults[%d]: flap-every needs count > 0 (unbounded flap storms are disallowed)", i)
			}
			flaps++
		case FaultLatencySpike:
			if f.LatencyMS <= 0 {
				return bad("faults[%d]: latency-spike needs latency_ms > 0", i)
			}
		case FaultBrokerRestart, FaultNodeKill, FaultRollingNodeKill:
			// The crash faults act on the cluster, and one watcher runs
			// one of them per run; a node-kill is a rolling kill of one
			// victim.
			crashes++
			if crashes > 1 {
				return bad("at most one broker-restart, node-kill or rolling-node-kill fault per scenario")
			}
			if f.AtFraction <= 0 || f.AtFraction > 1 {
				return bad("faults[%d]: %s needs at_fraction in (0,1]", i, f.Kind)
			}
			if s.Deployment.Durability == nil {
				return bad("faults[%d]: %s loses in-memory queues: deployment.durability is required", i, f.Kind)
			}
			if s.Deployment.Reconnect == nil {
				return bad("faults[%d]: %s drops clients: deployment.reconnect is required", i, f.Kind)
			}
			if f.Kind == FaultBrokerRestart {
				continue
			}
			victims := 1
			if f.Kind == FaultRollingNodeKill {
				if f.EveryFraction <= 0 || f.EveryFraction > 1 {
					return bad("faults[%d]: rolling-node-kill needs every_fraction in (0,1]", i)
				}
				if f.Count < 1 {
					return bad("faults[%d]: rolling-node-kill needs count >= 1", i)
				}
				if s.Deployment.ReplicationFactor < 2 {
					return bad("faults[%d]: rolling-node-kill survives on mirrors: deployment.replication_factor >= 2 is required", i)
				}
				victims = f.Count
			}
			if victims >= s.Deployment.ClusterNodes {
				return bad("faults[%d]: %s of %d node(s) needs deployment.cluster_nodes > %d (a survivor must remain)", i, f.Kind, victims, victims)
			}
			if f.Node != nil && (*f.Node < 0 || *f.Node >= s.Deployment.ClusterNodes) {
				return bad("faults[%d]: %s node %d out of range [0,%d)", i, f.Kind, *f.Node, s.Deployment.ClusterNodes)
			}
		default:
			return bad("faults[%d]: unknown kind %q", i, f.Kind)
		}
	}
	// The injector has one byte-trigger arm slot; a second flap step
	// would silently overwrite the first.
	if flaps > 1 {
		return bad("at most one flap/flap-every fault per scenario")
	}
	for i, r := range s.Health {
		if r.Name == "" {
			return bad("health[%d]: name is required", i)
		}
		if r.Source == "" {
			return bad("health[%d] (%s): source is required", i, r.Name)
		}
		switch r.Kind {
		case "", telemetry.RuleAbove, telemetry.RuleBelow, telemetry.RuleFlap:
		default:
			return bad("health[%d] (%s): unknown kind %q (known: above, below, flap)", i, r.Name, r.Kind)
		}
		if r.For < 0 || r.Clear < 0 {
			return bad("health[%d] (%s): for_ticks/clear_ticks must be non-negative", i, r.Name)
		}
		// Below rules legitimately warn at 0 (a stalled rate); above and
		// flap rules with a zero warn threshold would breach on every tick.
		if r.Kind != telemetry.RuleBelow && r.Warn <= 0 {
			return bad("health[%d] (%s): above and flap rules need warn > 0", i, r.Name)
		}
	}
	return nil
}

// timeout resolves the run deadline.
func (s Spec) timeout() time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return 120 * time.Second
}

// runs resolves the run count.
func (s Spec) runs() int {
	if s.Runs > 0 {
		return s.Runs
	}
	return 1
}

// workload resolves the declared workload value.
func (s Spec) workload() (workload.Workload, error) {
	w, err := workload.ByName(s.Workload.Name)
	if err != nil {
		return workload.Workload{}, err
	}
	if s.Workload.PayloadDivisor > 1 {
		w = w.Scaled(s.Workload.PayloadDivisor)
	}
	if s.Workload.PayloadBytes > 0 {
		w.PayloadBytes = s.Workload.PayloadBytes
	}
	return w, nil
}

// options builds the core deployment options declared by the spec (an
// empty durable data directory is left for deploy to create). Call only on
// a validated spec.
func (s Spec) options() core.Options {
	d := s.Deployment
	scale := d.FabricScale
	if scale == 0 {
		scale = 1.0
	}
	profile := fabric.ACE(scale)
	if d.FastControlPlane {
		profile.LBSetupCost = 0
		profile.RouteLookupLatency = 0
	}
	opts := core.Options{
		Nodes:                d.Nodes,
		Profile:              profile,
		MemoryLimit:          d.MemoryLimitBytes,
		DisableClientShaping: d.DisableClientShaping,
		BypassLB:             d.BypassLB,
	}
	if d.ClusterNodes > 0 {
		opts.Nodes = d.ClusterNodes
		opts.Federation = true
		opts.ReplicationFactor = d.ReplicationFactor
	}
	if r := d.Reconnect; r != nil {
		opts.Reconnect = &amqp.ReconnectPolicy{
			MaxAttempts: r.MaxAttempts,
			Delay:       time.Duration(r.DelayMS) * time.Millisecond,
			MaxDelay:    time.Duration(r.MaxDelayMS) * time.Millisecond,
		}
	}
	if dur := d.Durability; dur != nil {
		fs, _ := seglog.ParseFsync(dur.Fsync) // Validate rejects a bad policy
		opts.DataDir = dur.DataDir
		opts.Durability = seglog.Options{
			Fsync:        fs,
			FsyncEvery:   time.Duration(dur.FsyncIntervalMS) * time.Millisecond,
			SegmentBytes: dur.SegmentBytes,
			RetainAll:    dur.RetainAll,
		}
	}
	return opts
}

// needsInjector reports whether any declared fault runs through the
// transport injector (broker-restart and the node-kill family act on the
// cluster directly).
func (s Spec) needsInjector() bool {
	for _, f := range s.Faults {
		if f.Kind != FaultBrokerRestart && f.Kind != FaultNodeKill && f.Kind != FaultRollingNodeKill {
			return true
		}
	}
	return false
}

// totalMessages is the scenario's per-run production budget, the base of
// every fractional fault threshold (times the payload size for the
// byte-triggered ones).
func (s Spec) totalMessages() int64 {
	producers := s.Producers
	if g, ok := pattern.Lookup(s.Pattern); ok && g.SingleProducer {
		producers = 1
	}
	if producers <= 0 {
		producers = 1
	}
	return int64(producers) * int64(s.MessagesPerProducer)
}
