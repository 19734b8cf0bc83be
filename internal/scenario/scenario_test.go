package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/telemetry/forwarder"
)

// goldenSpec is the in-memory form of testdata/spec_golden.json: every
// field of the Spec exercised, including the fault script.
func goldenSpec() Spec {
	return Spec{
		Name: "golden-full",
		Deployment: Deployment{
			Architecture:         "PRS(HAProxy)",
			Nodes:                3,
			FabricScale:          0.2,
			MemoryLimitBytes:     1 << 30,
			DisableClientShaping: true,
			FastControlPlane:     true,
			BypassLB:             true,
			Reconnect:            &Reconnect{MaxAttempts: 60, DelayMS: 5, MaxDelayMS: 50},
		},
		Workload:            Workload{Name: "Dstream", PayloadDivisor: 8, PayloadBytes: 8192},
		Pattern:             "work-sharing",
		Producers:           4,
		Consumers:           8,
		MessagesPerProducer: 64,
		Runs:                3,
		Tuning: Tuning{
			WorkQueues: 2,
			Prefetch:   8,
			AckBatch:   4,
			Window:     4,
			QueueBytes: 32 << 20,
		},
		Faults: []Fault{
			{Kind: FaultFlap, AtFraction: 0.5, DownMS: 80},
			{Kind: FaultLatencySpike, LatencyMS: 2},
		},
		TimeoutMS: 60000,
	}
}

// TestSpecGoldenDecode pins the wire format: the checked-in golden file
// must decode (strictly, no unknown fields) into exactly goldenSpec.
func TestSpecGoldenDecode(t *testing.T) {
	data, err := os.ReadFile("testdata/spec_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := goldenSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden decode mismatch:\n got %+v\nwant %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("golden spec must validate: %v", err)
	}
}

// TestSpecGoldenEncode pins the encoder side: marshaling goldenSpec must
// reproduce the golden file byte for byte (so the JSON field names and
// layout are a stable public format).
func TestSpecGoldenEncode(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(goldenSpec()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/spec_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("golden encode mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestSpecRoundTrip checks encode→decode identity for a minimal spec
// (omitempty must not drop anything that matters).
func TestSpecRoundTrip(t *testing.T) {
	spec := Spec{
		Deployment:          Deployment{Architecture: "DTS"},
		Workload:            Workload{Name: "generic"},
		Pattern:             "broadcast",
		Consumers:           2,
		MessagesPerProducer: 4,
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	valid := func() Spec {
		return Spec{
			Deployment:          Deployment{Architecture: "DTS"},
			Workload:            Workload{Name: "Dstream"},
			Pattern:             "work-sharing",
			Producers:           1,
			Consumers:           1,
			MessagesPerProducer: 4,
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("baseline spec must validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"missing architecture", func(s *Spec) { s.Deployment.Architecture = "" }},
		{"unknown architecture", func(s *Spec) { s.Deployment.Architecture = "FTL" }},
		{"missing workload", func(s *Spec) { s.Workload.Name = "" }},
		{"unknown workload", func(s *Spec) { s.Workload.Name = "Xstream" }},
		{"unknown pattern", func(s *Spec) { s.Pattern = "round-robin" }},
		{"negative producers", func(s *Spec) { s.Producers = -1 }},
		{"negative consumers", func(s *Spec) { s.Consumers = -2 }},
		{"zero messages", func(s *Spec) { s.MessagesPerProducer = 0 }},
		{"negative runs", func(s *Spec) { s.Runs = -1 }},
		{"negative timeout", func(s *Spec) { s.TimeoutMS = -1 }},
		{"unknown fault kind", func(s *Spec) { s.Faults = []Fault{{Kind: "meteor"}} }},
		{"flap without position", func(s *Spec) { s.Faults = []Fault{{Kind: FaultFlap}} }},
		{"flap fraction out of range", func(s *Spec) {
			s.Faults = []Fault{{Kind: FaultFlap, AtFraction: 1.5}}
		}},
		{"flap-every without count", func(s *Spec) {
			s.Faults = []Fault{{Kind: FaultFlapEvery, EveryFraction: 0.3}}
		}},
		{"latency spike without delay", func(s *Spec) { s.Faults = []Fault{{Kind: FaultLatencySpike}} }},
		{"two flap steps", func(s *Spec) {
			s.Faults = []Fault{
				{Kind: FaultFlap, AtFraction: 0.3},
				{Kind: FaultFlapEvery, EveryFraction: 0.5, Count: 1},
			}
		}},
		{"bad fsync policy", func(s *Spec) {
			s.Deployment.Durability = &Durability{Fsync: "sometimes"}
		}},
		{"broker-restart without durability", func(s *Spec) {
			s.Deployment.Reconnect = &Reconnect{MaxAttempts: 10}
			s.Faults = []Fault{{Kind: FaultBrokerRestart, AtFraction: 0.5}}
		}},
		{"broker-restart without reconnect", func(s *Spec) {
			s.Deployment.Durability = &Durability{}
			s.Faults = []Fault{{Kind: FaultBrokerRestart, AtFraction: 0.5}}
		}},
		{"broker-restart bad fraction", func(s *Spec) {
			s.Deployment.Durability = &Durability{}
			s.Deployment.Reconnect = &Reconnect{MaxAttempts: 10}
			s.Faults = []Fault{{Kind: FaultBrokerRestart}}
		}},
		{"two broker restarts", func(s *Spec) {
			s.Deployment.Durability = &Durability{}
			s.Deployment.Reconnect = &Reconnect{MaxAttempts: 10}
			s.Faults = []Fault{
				{Kind: FaultBrokerRestart, AtFraction: 0.3},
				{Kind: FaultBrokerRestart, AtFraction: 0.6},
			}
		}},
		{"replay pattern without durability", func(s *Spec) {
			s.Pattern = "cold-replay"
		}},
		{"replay pattern without retention", func(s *Spec) {
			s.Pattern = "cold-replay"
			s.Deployment.Durability = &Durability{}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

// TestRunRejectsInvalidSpec checks Run fails fast (no deploy) on a bad
// spec.
func TestRunRejectsInvalidSpec(t *testing.T) {
	_, err := Run(context.Background(), Spec{})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

// TestRunOnRejectsFaultScript pins that fault scripts are only available
// through Run: the injector must be composed at deploy time.
func TestRunOnRejectsFaultScript(t *testing.T) {
	dep, err := core.Deploy(core.DTS, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	spec := Spec{
		Deployment:          Deployment{Architecture: "DTS"},
		Workload:            Workload{Name: "Dstream"},
		Pattern:             "work-sharing",
		MessagesPerProducer: 1,
		Faults:              []Fault{{Kind: FaultFlap, AtFraction: 0.5}},
	}
	if _, err := RunOn(context.Background(), dep, spec); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

// smallSpec is a small point on arch: 2 producers and 2 consumers, a
// fast control plane so only the data path is timed, and a 30 s budget.
func smallSpec(arch, pat string, msgs int) Spec {
	return Spec{
		Deployment: Deployment{
			Architecture:         arch,
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             pat,
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: msgs,
		TimeoutMS:           30000,
	}
}

// TestRunExecutesSpec is the end-to-end smoke of the declarative path: a
// small work-sharing spec must deploy, run, and report.
func TestRunExecutesSpec(t *testing.T) {
	spec := smallSpec("DTS", "work-sharing", 6)
	spec.Name = "unit-smoke"
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infeasible {
		t.Fatal("DTS must be feasible")
	}
	if rep.Result.Consumed != 12 {
		t.Fatalf("consumed %d, want 12", rep.Result.Consumed)
	}
}

// TestRunWorkSharing checks Run merges every run of a point into one
// result: two runs of 2x8 messages consume 32.
func TestRunWorkSharing(t *testing.T) {
	spec := smallSpec("DTS", "work-sharing", 8)
	spec.Runs = 2
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infeasible {
		t.Fatal("DTS must be feasible")
	}
	if rep.Result.Consumed != 32 {
		t.Fatalf("consumed %d, want 32", rep.Result.Consumed)
	}
}

// TestRunFeedbackCollectsRTTs checks the feedback pattern keeps one
// round-trip sample per message across both runs.
func TestRunFeedbackCollectsRTTs(t *testing.T) {
	spec := smallSpec("DTS", "work-sharing-feedback", 8)
	spec.Runs = 2
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.RTTCount() != 32 {
		t.Fatalf("RTTs %d, want 32", rep.Result.RTTCount())
	}
}

// TestRunUnknownPattern checks a pattern with no role graph is a typed
// ErrBadSpec from Run, not a deploy-then-fail.
func TestRunUnknownPattern(t *testing.T) {
	_, err := Run(context.Background(), smallSpec("DTS", "nope", 8))
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

// TestRunAndSweepRejectBadSpecs pins the up-front validation of both entry
// points: a broken point fails fast with ErrBadSpec from Run and from
// Sweep alike, instead of hanging or failing deep inside a run.
func TestRunAndSweepRejectBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"negative producers", func(s *Spec) { s.Producers = -1 }},
		{"negative consumers", func(s *Spec) { s.Consumers = -4 }},
		{"zero messages", func(s *Spec) { s.MessagesPerProducer = 0 }},
		{"negative messages", func(s *Spec) { s.MessagesPerProducer = -8 }},
		{"negative runs", func(s *Spec) { s.Runs = -1 }},
		{"unknown pattern", func(s *Spec) { s.Pattern = "no-such-pattern" }},
		{"unknown workload", func(s *Spec) { s.Workload.Name = "Xstream" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := smallSpec("DTS", "work-sharing", 8)
			tc.mutate(&s)
			if _, err := Run(context.Background(), s); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Run err = %v, want ErrBadSpec", err)
			}
			if _, err := Sweep(context.Background(), s, []int{1}); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Sweep err = %v, want ErrBadSpec", err)
			}
		})
	}
}

// TestRunMarksInfeasible checks the Stunnel ceiling surfaces as an
// Infeasible report, not an error.
func TestRunMarksInfeasible(t *testing.T) {
	spec := smallSpec("PRS(Stunnel)", "work-sharing", 1)
	spec.Producers, spec.Consumers = 32, 32
	spec.TimeoutMS = 10000
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Infeasible {
		t.Fatal("32 producers over Stunnel must be infeasible")
	}
}

// TestSweepScalesProducers checks sweep semantics (equal producer and
// consumer counts except single-producer patterns).
func TestSweepScalesProducers(t *testing.T) {
	points, err := Sweep(context.Background(), smallSpec("DTS", "work-sharing", 2), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	for _, pt := range points {
		if pt.Spec.Producers != pt.Spec.Consumers {
			t.Fatalf("producers %d != consumers %d", pt.Spec.Producers, pt.Spec.Consumers)
		}
	}
}

// TestSweepScalesProducersWithConsumers checks each cell's producer count
// follows its pattern: work-sharing runs one producer per consumer, while
// a single-producer pattern (broadcast) keeps one producer at every size.
func TestSweepScalesProducersWithConsumers(t *testing.T) {
	for _, pat := range []string{"work-sharing", "broadcast"} {
		points, err := Sweep(context.Background(), smallSpec("DTS", pat, 2), []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2 {
			t.Fatalf("%s: points %d", pat, len(points))
		}
		for _, pt := range points {
			want := pt.Spec.Consumers
			if pat == "broadcast" {
				want = 1
			}
			if pt.Spec.Producers != want {
				t.Fatalf("%s: %d consumers ran %d producers, want %d", pat, pt.Spec.Consumers, pt.Spec.Producers, want)
			}
		}
	}
}

// TestStunnelSweepMarksInfeasible crosses the Stunnel ceiling inside one
// sweep: both cells share one deployment, the 1-consumer cell runs and the
// 32-consumer cell (32 producers on a 16-stream tunnel) is infeasible.
func TestStunnelSweepMarksInfeasible(t *testing.T) {
	points, err := Sweep(context.Background(), smallSpec("PRS(Stunnel)", "work-sharing", 2), []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	if points[0].Infeasible {
		t.Fatal("1 consumer must be feasible on stunnel")
	}
	if !points[1].Infeasible {
		t.Fatal("32 consumers must be infeasible on stunnel")
	}
}

// TestPaperPoint pins PaperPoint, one point per pattern, against the specs
// the figure drivers wrote out by hand before it existed (expdriver's
// defaults: scale 0.1, 48 messages, one run, 15 minutes; the last row is
// the figure tests' pipeline point).
func TestPaperPoint(t *testing.T) {
	paper := func(arch, wl, pat string, prod, cons, msgs, window int) Spec {
		return Spec{
			Deployment: Deployment{
				Architecture:     arch,
				Nodes:            3,
				FabricScale:      0.1,
				MemoryLimitBytes: 1 << 30,
			},
			Workload:            Workload{Name: wl, PayloadDivisor: 8},
			Pattern:             pat,
			Producers:           prod,
			Consumers:           cons,
			MessagesPerProducer: msgs,
			Tuning:              Tuning{Window: window},
		}
	}
	cases := []struct {
		name string
		got  Spec
		want Spec
	}{
		{"overhead work-sharing",
			PaperPoint(core.PRSHAProxy, "Dstream", "work-sharing", 4, 0.1, 48),
			paper("PRS(HAProxy)", "Dstream", "work-sharing", 4, 4, 48, 4)},
		{"fig5 feedback",
			PaperPoint(core.PRSHAProxy4Conns, "Lstream", "work-sharing-feedback", 16, 0.1, 48),
			paper("PRS(HAProxy,4conns)", "Lstream", "work-sharing-feedback", 16, 16, 8, 2)},
		{"fig7a broadcast cell",
			PaperPoint(core.MSS, "generic", "broadcast", 16, 0.1, 48),
			paper("MSS", "generic", "broadcast", 1, 16, 6, 4)},
		{"fig8 broadcast-gather",
			PaperPoint(core.DTS, "generic", "broadcast-gather", 16, 0.1, 48),
			paper("DTS", "generic", "broadcast-gather", 1, 16, 6, 4)},
		{"figure-test pipeline",
			PaperPoint(core.DTS, "Dstream", "pipeline", 2, 0.1, 4),
			paper("DTS", "Dstream", "pipeline", 2, 2, 4, 4)},
	}
	for _, tc := range cases {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, tc.got, tc.want)
		}
		if err := tc.got.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestBrokerRestartScenario is the headline crash scenario through the
// declarative surface: durable queues (fsync=always, confirm implies
// durable), reconnecting clients, and a broker-restart fault that
// hard-kills the whole broker tier a quarter of the way through. The run
// must complete with every produced message consumed — zero acked-message
// loss across the crash — and the report must show the restart happened.
func TestBrokerRestartScenario(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Name: "crash-restart-smoke",
		Deployment: Deployment{
			Architecture:         "DTS",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Reconnect:            &Reconnect{MaxAttempts: 400, DelayMS: 5, MaxDelayMS: 25},
			Durability:           &Durability{Fsync: "always"},
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 40,
		Faults:              []Fault{{Kind: FaultBrokerRestart, AtFraction: 0.25, DownMS: 60}},
		TimeoutMS:           60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BrokerRestarts != 1 {
		t.Fatalf("BrokerRestarts = %d, want 1", rep.BrokerRestarts)
	}
	// At-least-once across a crash: nothing acked is lost, and messages
	// unacked at the kill point are redelivered after recovery, so the
	// consumed count can exceed the budget but never fall short.
	if want := int64(80); rep.Result.Consumed < want {
		t.Fatalf("consumed %d, want at least %d (acked messages lost across the crash)", rep.Result.Consumed, want)
	}
}

// TestColdReplayScenario runs the cold-replay pattern declaratively: the
// hot pool consumes and acks everything, then the cold consumer replays
// the full retained history, doubling the delivery count.
func TestColdReplayScenario(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Name: "cold-replay-smoke",
		Deployment: Deployment{
			Architecture:         "DTS",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Durability:           &Durability{RetainAll: true},
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "cold-replay",
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 8,
		TimeoutMS:           60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(32); rep.Result.Consumed != want {
		t.Fatalf("consumed %d, want %d (16 hot + 16 replayed)", rep.Result.Consumed, want)
	}
}

// withTickInterval overrides the aggregator's one-second sampling period:
// short ticks exercise multi-point timelines and per-tick health rules.
func withTickInterval(d time.Duration) Option {
	return func(o *options) { o.tick = d }
}

// TestReportTelemetry covers the live-telemetry surface of a report:
// latency percentiles from the streaming histogram and a throughput
// timeline with at least the final-flush point, plus live watch ticks.
func TestReportTelemetry(t *testing.T) {
	var mu sync.Mutex
	var ticks []telemetry.Tick
	rep, err := Run(context.Background(), Spec{
		Name: "telemetry-smoke",
		Deployment: Deployment{
			Architecture:         "DTS",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing-feedback",
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 6,
		Tuning:              Tuning{Window: 2},
		TimeoutMS:           30000,
	},
		withTickInterval(5*time.Millisecond),
		WithWatch(func(tk telemetry.Tick) {
			mu.Lock()
			ticks = append(ticks, tk)
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.P50 <= 0 || rep.P95 < rep.P50 || rep.P99 < rep.P95 {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", rep.P50, rep.P95, rep.P99)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("no throughput timeline")
	}
	var total float64
	for i, p := range rep.Timeline {
		if p.V < 0 {
			t.Fatalf("negative rate at %d: %+v", i, p)
		}
		total += p.V
	}
	if total <= 0 {
		t.Fatal("timeline recorded no throughput")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ticks) == 0 {
		t.Fatal("watch callback never fired")
	}
	last := ticks[len(ticks)-1]
	for _, key := range []string{"consumed", "produced", "errors", "reconnects"} {
		if _, ok := last.Values[key]; !ok {
			t.Fatalf("rollup missing %q: %+v", key, last.Values)
		}
	}
}

// TestReportTimelineWithoutOptions checks the default path (no watch,
// one-second ticks): a sub-second run still yields a final-flush point.
func TestReportTimelineWithoutOptions(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Deployment: Deployment{
			Architecture:         "DTS",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           1,
		Consumers:           1,
		MessagesPerProducer: 4,
		TimeoutMS:           30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("sub-second run must still produce a timeline point")
	}
	if rep.Timeline[len(rep.Timeline)-1].V <= 0 {
		t.Fatalf("final flush rate = %v", rep.Timeline[len(rep.Timeline)-1].V)
	}
}

// TestClusterFailoverScenario is the headline failover scenario through
// the declarative surface: a 3-node clustered data plane (ring placement,
// federation, redirects), durable work-sharing queues (fsync=always), and
// a node-kill fault that hard-kills the busiest queue master 40% of the
// way through and leaves it dead. The run must complete with every
// confirmed message consumed — zero confirmed-message loss across the
// failover — and clients must have followed at least one master redirect
// while riding their reconnect policies to the surviving nodes.
func TestClusterFailoverScenario(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Name: "cluster-failover-smoke",
		Deployment: Deployment{
			Architecture:         "DTS",
			ClusterNodes:         3,
			Placement:            "ring",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Reconnect:            &Reconnect{MaxAttempts: 400, DelayMS: 5, MaxDelayMS: 25},
			Durability:           &Durability{Fsync: "always"},
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           6,
		Consumers:           6,
		MessagesPerProducer: 20,
		Tuning:              Tuning{WorkQueues: 6},
		Faults:              []Fault{{Kind: FaultNodeKill, AtFraction: 0.4}},
		TimeoutMS:           60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeKills != 1 {
		t.Fatalf("NodeKills = %d, want 1", rep.NodeKills)
	}
	// At-least-once across the failover: nothing confirmed is lost, and
	// messages unacked at the kill are redelivered by the new master, so
	// the consumed count can exceed the budget but never fall short.
	if want := int64(120); rep.Result.Consumed < want {
		t.Fatalf("consumed %d, want at least %d (confirmed messages lost across the failover)", rep.Result.Consumed, want)
	}
	// Clients of the dead master must have reached the new master via a
	// survivor's redirect, not luck: seed rotation lands some of them on
	// a node that no longer masters their queue.
	if rep.Redirects < 1 {
		t.Fatalf("Redirects = %d, want >= 1 (no client followed a master redirect)", rep.Redirects)
	}
}

// TestClusterFailoverHealthEvents re-runs the failover scenario with a
// fast tick and asserts the health monitor narrates the outage: killing
// a queue master must surface as a redirect-followed or reconnect-storm
// transition in Report.HealthEvents (the rollup-driven health checks
// seeing the same failover the Redirects counter proves happened).
func TestClusterFailoverHealthEvents(t *testing.T) {
	var live []telemetry.HealthEvent
	var liveMu sync.Mutex
	rep, err := Run(context.Background(), Spec{
		Name: "cluster-failover-health",
		Deployment: Deployment{
			Architecture:         "DTS",
			ClusterNodes:         3,
			Placement:            "ring",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Reconnect:            &Reconnect{MaxAttempts: 400, DelayMS: 5, MaxDelayMS: 25},
			Durability:           &Durability{Fsync: "always"},
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           6,
		Consumers:           6,
		MessagesPerProducer: 20,
		Tuning:              Tuning{WorkQueues: 6},
		Faults:              []Fault{{Kind: FaultNodeKill, AtFraction: 0.4}},
		TimeoutMS:           60000,
	},
		// A tick far shorter than the run (~100 ms end to end), so the
		// failover window spans several rollups: the default rules
		// evaluate deltas per tick and need a tick before the redirect.
		withTickInterval(5*time.Millisecond),
		WithHealthWatch(func(e telemetry.HealthEvent) {
			liveMu.Lock()
			live = append(live, e)
			liveMu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeKills != 1 {
		t.Fatalf("NodeKills = %d, want 1", rep.NodeKills)
	}
	failoverRules := map[string]bool{"redirect-followed": true, "reconnect-storm": true}
	found := false
	for _, ev := range rep.HealthEvents {
		if failoverRules[ev.Rule] && ev.To > telemetry.HealthOK {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no redirect-followed/reconnect-storm health event across a node kill; log: %v", rep.HealthEvents)
	}
	// The live watch callback saw the same transitions the report logs.
	liveMu.Lock()
	defer liveMu.Unlock()
	if len(live) != len(rep.HealthEvents) {
		t.Fatalf("health watch saw %d events, report logs %d", len(live), len(rep.HealthEvents))
	}
}

// TestScenarioForwarderEndToEnd runs a tiny scenario with an off-box
// forwarder attached and checks the sink received the whole telemetry
// stream: at least one tick rollup (the aggregator's final flush) and
// the end-of-run registry snapshot, in valid frames.
func TestScenarioForwarderEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.dstl")
	sink, err := forwarder.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := forwarder.New(forwarder.Config{Sink: sink, Probes: telemetry.NewRegistry()})

	_, err = Run(context.Background(), Spec{
		Deployment: Deployment{
			Architecture:         "DTS",
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           1,
		Consumers:           1,
		MessagesPerProducer: 4,
		TimeoutMS:           30000,
	}, WithForwarder(fw))
	if err != nil {
		t.Fatal(err)
	}
	fw.Stop()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fw.Stats(); st.Dropped != 0 || st.Sent == 0 {
		t.Fatalf("forwarder stats after healthy run: %+v", st)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	ticks, snapshots := 0, 0
	for {
		body, err := forwarder.ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p, err := forwarder.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		switch p.Kind {
		case forwarder.KindTick:
			ticks++
			if _, ok := p.Values["consumed"]; !ok {
				t.Fatalf("tick payload missing consumed source: %+v", p.Values)
			}
		case forwarder.KindSnapshot:
			snapshots++
			if p.Snapshot == nil || p.Snapshot.Counters["broker.published"] == 0 {
				t.Fatalf("snapshot payload missing broker counters")
			}
		}
	}
	if ticks == 0 || snapshots != 1 {
		t.Fatalf("sink saw %d ticks and %d snapshots, want >=1 and exactly 1", ticks, snapshots)
	}
}
