// Deterministic test wrappers around the paper-figure benchmark harness.
// Every Benchmark* scenario in bench_test.go has a short single-iteration
// Test* counterpart here, so `go test ./...` exercises the full
// publish→route→deliver plumbing behind each figure (architectures,
// patterns, workloads, ablation knobs) and guards it against regressions.
//
// The tests speak the declarative scenario API: each data point is one
// scenario.Spec value executed by scenario.Run, the same path the
// `streamsim scenario` subcommand drives from a JSON file.
//
// Budgets are deliberately small — a handful of messages and two consumers
// per point — so the whole suite stays well under a minute; `-short` trims
// the architecture sweeps to the DTS baseline.
package ds2hpc

import (
	"context"
	"testing"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/workload"
)

// testMessages is the per-producer message budget of one test data point.
const testMessages = 4

// testConsumers is the consumer (and, outside broadcast, producer) count.
const testConsumers = 2

// testSpec is one figure data point at test size: the paper's policy
// (scenario.PaperPoint, at the benchmarks' fabric scale) with a flat
// budget of testMessages for every workload.
func testSpec(arch core.ArchitectureName, w workload.Workload, pat string, consumers int) scenario.Spec {
	spec := scenario.PaperPoint(arch, w.Name, pat, consumers, benchScale, testMessages)
	spec.MessagesPerProducer = testMessages
	spec.Runs = 1
	spec.TimeoutMS = (30 * time.Second).Milliseconds()
	return spec
}

// testPoint runs one data point, failing the test on error and skipping
// configurations the architecture cannot run (the paper's missing points).
func testPoint(t *testing.T, spec scenario.Spec) *metrics.Result {
	t.Helper()
	rep, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infeasible {
		t.Skip("infeasible for this architecture (paper: no data point)")
	}
	r := rep.Result
	if r.Consumed == 0 {
		t.Fatal("no messages consumed")
	}
	if r.Throughput <= 0 {
		t.Fatal("no throughput recorded")
	}
	return r
}

// shortArchs trims an architecture sweep to its first entry (the DTS
// baseline) under -short.
func shortArchs(archs []core.ArchitectureName) []core.ArchitectureName {
	if testing.Short() {
		return archs[:1]
	}
	return archs
}

// --------------------------------------------------------------- Table 1

func TestTable1Workloads(t *testing.T) {
	for _, w := range workload.All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			gen := workload.NewGenerator(w, 0)
			for seq := uint64(0); seq < 2; seq++ {
				body, err := gen.Payload(seq)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(body); err != nil {
					t.Fatalf("payload %d: %v", seq, err)
				}
			}
		})
	}
}

// --------------------------------------------------------------- Figure 4

func testWorkSharing(t *testing.T, w workload.Workload) {
	for _, arch := range shortArchs(core.AllArchitectures) {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			res := testPoint(t, testSpec(arch, w, "work-sharing", testConsumers))
			want := int64(testConsumers * testMessages)
			if res.Consumed != want {
				t.Fatalf("consumed %d, want %d", res.Consumed, want)
			}
		})
	}
}

func TestFig4aDstreamWorkSharing(t *testing.T) { testWorkSharing(t, workload.Dstream) }

func TestFig4bLstreamWorkSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("Lstream sweep covered by Fig6b in short mode")
	}
	testWorkSharing(t, workload.Lstream)
}

// --------------------------------------------------------------- Figure 5

func TestFig5RTTCDF(t *testing.T) {
	for _, arch := range shortArchs(scenario.Fig56Architectures) {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			res := testPoint(t, testSpec(arch, workload.Dstream, "work-sharing-feedback", testConsumers))
			want := testConsumers * testMessages
			if res.RTTCount() != int64(want) {
				t.Fatalf("RTT samples = %d, want %d", res.RTTCount(), want)
			}
			cdf := res.RTT.CDF(4)
			if len(cdf) == 0 {
				t.Fatal("empty CDF")
			}
			for i := 1; i < len(cdf); i++ {
				if cdf[i].P < cdf[i-1].P || cdf[i].V < cdf[i-1].V {
					t.Fatalf("CDF not monotonic at %d: %+v", i, cdf)
				}
			}
			if last := cdf[len(cdf)-1].P; last != 1 {
				t.Fatalf("CDF must end at 1, got %v", last)
			}
		})
	}
}

// --------------------------------------------------------------- Figure 6

func testFeedback(t *testing.T, w workload.Workload) {
	for _, arch := range shortArchs(scenario.Fig56Architectures) {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			res := testPoint(t, testSpec(arch, w, "work-sharing-feedback", testConsumers))
			if res.MedianRTT() <= 0 {
				t.Fatal("median RTT must be positive")
			}
			if res.PercentileRTT(99) < res.MedianRTT() {
				t.Fatal("p99 < median")
			}
		})
	}
}

func TestFig6aDstreamFeedbackRTT(t *testing.T) { testFeedback(t, workload.Dstream) }

func TestFig6bLstreamFeedbackRTT(t *testing.T) { testFeedback(t, workload.Lstream) }

// --------------------------------------------------------------- Figure 7

func TestFig7aBroadcastThroughput(t *testing.T) {
	for _, arch := range shortArchs(scenario.Fig78Architectures) {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			res := testPoint(t, testSpec(arch, workload.Generic, "broadcast", testConsumers))
			// Every consumer receives every broadcast message.
			want := int64(testConsumers * testMessages)
			if res.Consumed != want {
				t.Fatalf("consumed %d, want %d", res.Consumed, want)
			}
		})
	}
}

func TestFig7bBroadcastGatherRTT(t *testing.T) {
	for _, arch := range shortArchs(scenario.Fig78Architectures) {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			res := testPoint(t, testSpec(arch, workload.Generic, "broadcast-gather", testConsumers))
			// One gathered reply (and one RTT sample) per consumer per msg.
			want := testConsumers * testMessages
			if res.RTTCount() != int64(want) {
				t.Fatalf("RTT samples = %d, want %d", res.RTTCount(), want)
			}
		})
	}
}

// --------------------------------------------------------------- Figure 8

func TestFig8BroadcastGatherCDF(t *testing.T) {
	res := testPoint(t, testSpec(core.DTS, workload.Generic, "broadcast-gather", testConsumers))
	if res.FractionUnder(res.PercentileRTT(80)) < 0.75 {
		t.Fatalf("p80 fraction inconsistent: %v", res.FractionUnder(res.PercentileRTT(80)))
	}
}

// --------------------------------------------------------------- pipeline

// TestPipelineScenario covers the multi-stage pattern enabled by the role
// engine: edge producers → filter tier → single fan-in aggregator. Every
// message must traverse both stages, so consumed counts them twice.
func TestPipelineScenario(t *testing.T) {
	res := testPoint(t, testSpec(core.DTS, workload.Dstream, "pipeline", testConsumers))
	want := int64(testConsumers * testMessages * 2)
	if res.Consumed != want {
		t.Fatalf("consumed %d, want %d (both stages)", res.Consumed, want)
	}
}

// --------------------------------------------------------------- ablations

func TestAblationWorkQueues(t *testing.T) {
	for _, queues := range []int{1, 2} {
		queues := queues
		t.Run("queues="+itoa(queues), func(t *testing.T) {
			spec := testSpec(core.DTS, workload.Dstream, "work-sharing", testConsumers)
			spec.Tuning.WorkQueues = queues
			res := testPoint(t, spec)
			if want := int64(testConsumers * testMessages); res.Consumed != want {
				t.Fatalf("consumed %d, want %d", res.Consumed, want)
			}
		})
	}
}

func TestAblationAckBatching(t *testing.T) {
	for _, batch := range []int{1, 4} {
		batch := batch
		t.Run("ackbatch="+itoa(batch), func(t *testing.T) {
			spec := testSpec(core.DTS, workload.Dstream, "work-sharing", testConsumers)
			spec.Tuning.AckBatch = batch
			spec.Tuning.Prefetch = 2 * batch
			res := testPoint(t, spec)
			if want := int64(testConsumers * testMessages); res.Consumed != want {
				t.Fatalf("consumed %d, want %d", res.Consumed, want)
			}
		})
	}
}

func TestAblationPrefetch(t *testing.T) {
	for _, prefetch := range []int{1, 8} {
		prefetch := prefetch
		t.Run("prefetch="+itoa(prefetch), func(t *testing.T) {
			spec := testSpec(core.DTS, workload.Dstream, "work-sharing", testConsumers)
			spec.Tuning.Prefetch = prefetch
			testPoint(t, spec)
		})
	}
}

func TestAblationMSSBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("MSS deploys are the slowest; skipped under -short")
	}
	for _, bypass := range []bool{false, true} {
		bypass := bypass
		name := "front-door"
		if bypass {
			name = "bypass-lb"
		}
		t.Run(name, func(t *testing.T) {
			spec := testSpec(core.MSS, workload.Dstream, "work-sharing", testConsumers)
			spec.Deployment.BypassLB = bypass
			testPoint(t, spec)
		})
	}
}

// TestAblationDurabilityPayload crosses the fsync policy with the payload
// size on durable DTS queues — the figure-harness counterpart of
// BenchmarkAblationDurabilityPayload. Every cell must still deliver the
// full message budget; only throughput may differ between policies.
func TestAblationDurabilityPayload(t *testing.T) {
	policies := []string{"never", "interval", "always"}
	payloads := []int{512, 8192}
	if testing.Short() {
		policies = []string{"never", "always"}
		payloads = []int{512}
	}
	for _, fs := range policies {
		for _, payload := range payloads {
			fs, payload := fs, payload
			t.Run("fsync="+fs+"/payload="+itoa(payload), func(t *testing.T) {
				spec := testSpec(core.DTS, workload.Dstream, "work-sharing", testConsumers)
				spec.Deployment.Durability = &scenario.Durability{Fsync: fs, FsyncIntervalMS: 5}
				spec.Workload.PayloadBytes = payload
				res := testPoint(t, spec)
				if want := int64(testConsumers * testMessages); res.Consumed != want {
					t.Fatalf("consumed %d, want %d", res.Consumed, want)
				}
			})
		}
	}
}

func TestOverheadVsDTS(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-architecture comparison skipped under -short")
	}
	base := testPoint(t, testSpec(core.DTS, workload.Dstream, "work-sharing", testConsumers))
	for _, arch := range []core.ArchitectureName{core.PRSHAProxy, core.MSS} {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			res := testPoint(t, testSpec(arch, workload.Dstream, "work-sharing", testConsumers))
			ov := metrics.Overhead(base.Throughput, res.Throughput)
			if ov <= 0 {
				t.Fatalf("overhead %v must be positive", ov)
			}
		})
	}
}

// TestTelemetryPipeline locks in that one figure run moves the live
// telemetry subsystem end to end: broker probes count publishes and
// track peak queue depth, the engine's per-role counters advance, RTT
// samples stream into the process-wide histogram, and the Prometheus
// exposition renders it all.
func TestTelemetryPipeline(t *testing.T) {
	before := telemetry.Default.Snapshot()
	testPoint(t, testSpec(core.DTS, workload.Dstream, "work-sharing-feedback", testConsumers))
	after := telemetry.Default.Snapshot()

	if d := after.Counters["broker.published"] - before.Counters["broker.published"]; d <= 0 {
		t.Errorf("broker.published moved by %d", d)
	}
	if d := after.Counters[`pattern.consumed{role=fcons}`] - before.Counters[`pattern.consumed{role=fcons}`]; d <= 0 {
		t.Errorf("per-role consumed counter moved by %d (keys: %v)", d, len(after.Counters))
	}
	if after.Watermarks["broker.queue_depth_peak"] <= 0 {
		t.Error("no peak queue depth recorded")
	}
	rtts := after.Histograms["rtt_ns"]
	if rtts == nil || rtts.Count <= before.Histograms["rtt_ns"].Count {
		t.Error("RTT histogram did not grow")
	}
	// The gauge is process-wide, and earlier runs in the same binary can
	// leave it off zero (an at-least-once redelivery lowers it twice), so
	// this run must only leave it where it found it.
	if d := after.Gauges[`pattern.inflight{role=prod}`] - before.Gauges[`pattern.inflight{role=prod}`]; d != 0 {
		t.Errorf("in-flight gauge did not drain: moved by %d", d)
	}
}

// TestHotPathCounters locks in that one experiment moves the
// wire/broker instrumentation: buffers recycle through the pool, frame
// writes coalesce, and deliveries batch.
func TestHotPathCounters(t *testing.T) {
	names := []string{"wire.bufpool_hits", "wire.coalesced_writes", "wire.frames_coalesced", "broker.delivery_batches"}
	before := make([]int64, len(names))
	for i, name := range names {
		before[i] = telemetry.Default.Counter(name).Load()
	}
	testPoint(t, testSpec(core.DTS, workload.Dstream, "work-sharing", testConsumers))
	for i, name := range names {
		if d := telemetry.Default.Counter(name).Load() - before[i]; d <= 0 {
			t.Errorf("%s moved by %d", name, d)
		}
	}
}
