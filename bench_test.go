// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5). Each data point deploys the architecture on a scaled
// ACE fabric (same capacity ratios as the paper's testbed, lower absolute
// rates) and runs the corresponding messaging pattern, reporting the
// paper's metrics via b.ReportMetric:
//
//	msgs_per_sec  aggregate consumer throughput (Figures 4 and 7a)
//	median_ms     median round-trip time (Figures 6 and 7b)
//	p80_ms        80th percentile RTT (the CDF figures 5 and 8)
//	overhead_x    throughput overhead relative to DTS (§5.3 text)
//
// Absolute numbers differ from the paper (scaled fabric, loopback TCP);
// the comparative shape — who wins, by roughly what factor, where the
// curves flatten — is the reproduction target. Run with:
//
//	go test -bench=. -benchmem
package ds2hpc

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/workload"
)

// TestMain emits the final process-wide telemetry snapshot after a
// bench run — one "TELEMETRY_SNAPSHOT: {...}" line benchsnap embeds in
// BENCH_<pr>.json, so the perf trajectory records the cumulative RTT
// histogram and peak queue depth alongside the per-benchmark means.
// Plain `go test` runs (no -test.bench) stay silent.
func TestMain(m *testing.M) {
	code := m.Run()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		if data, err := json.Marshal(telemetry.Default.Snapshot()); err == nil {
			fmt.Printf("TELEMETRY_SNAPSHOT: %s\n", data)
		}
	}
	os.Exit(code)
}

// benchScale shrinks the fabric (and, through scenario.PaperPoint, the
// payloads) so a full `go test -bench=.` pass completes in minutes on a
// laptop while keeping every capacity ratio of the paper's testbed.
const benchScale = 0.1

// benchConsumerCounts samples the paper's 1-64 consumer x-axis.
var benchConsumerCounts = []int{1, 4, 16}

// benchMessages is the Dstream message budget per producer of one bench
// data point (PaperPoint scales it down for the larger workloads).
const benchMessages = 48

// runPoint executes one experiment data point inside a benchmark.
func runPoint(b *testing.B, spec scenario.Spec) *metrics.Result {
	b.Helper()
	var last *metrics.Result
	for i := 0; i < b.N; i++ {
		rep, err := scenario.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Infeasible {
			b.Skip("infeasible for this architecture (paper: no data point)")
		}
		last = rep.Result
	}
	if last != nil {
		b.ReportMetric(last.Throughput, "msgs_per_sec")
		if last.RTTCount() > 0 {
			b.ReportMetric(float64(last.MedianRTT())/1e6, "median_ms")
			b.ReportMetric(float64(last.PercentileRTT(80))/1e6, "p80_ms")
		}
	}
	return last
}

// benchSpec is one figure data point at bench size: one run within a 90 s
// deadline.
func benchSpec(arch core.ArchitectureName, w workload.Workload, pat string, consumers int) scenario.Spec {
	spec := scenario.PaperPoint(arch, w.Name, pat, consumers, benchScale, benchMessages)
	spec.Runs = 1
	spec.TimeoutMS = (90 * time.Second).Milliseconds()
	return spec
}

// --------------------------------------------------------------- Table 1

// BenchmarkTable1Workloads measures payload generation and verification
// for the three Table 1 workloads at full payload size, checking that the
// generators sustain rates far above the emulated links.
func BenchmarkTable1Workloads(b *testing.B) {
	for _, w := range workload.All {
		b.Run(w.Name, func(b *testing.B) {
			gen := workload.NewGenerator(w, 0)
			b.SetBytes(int64(w.PayloadBytes))
			for i := 0; i < b.N; i++ {
				body, err := gen.Payload(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Verify(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------- Figures 4-8

// benchCells is one figure's cells at bench size over the given consumer
// counts: one run each within a 90 s deadline.
func benchCells(f scenario.Figure, counts []int) []scenario.Spec {
	cells := f.Cells(scenario.FigureGrid{Scale: benchScale, Counts: counts, Msgs: benchMessages, Runs: 1})
	for i := range cells {
		cells[i].TimeoutMS = (90 * time.Second).Milliseconds()
	}
	return cells
}

// benchFigure runs one figure's cells as sub-benchmarks named
// <architecture>/cons=<n>, prefixed by the workload when the figure spans
// several. An RTT-probe figure (the CDF figures 5 and 8) also reports the
// p50 and p95 probes, so the distribution shape is visible in the output.
func benchFigure(b *testing.B, id string) {
	f := figure(b, id)
	for _, spec := range benchCells(f, benchConsumerCounts) {
		name := spec.Deployment.Architecture + "/cons=" + itoa(spec.Consumers)
		if len(f.Workloads) > 1 {
			name = spec.Workload.Name + "/" + name
		}
		b.Run(name, func(b *testing.B) {
			res := runPoint(b, spec)
			if f.Report == scenario.ReportRTTProbes && res != nil && res.RTTCount() > 0 {
				b.ReportMetric(float64(res.PercentileRTT(50))/1e6, "p50_ms")
				b.ReportMetric(float64(res.PercentileRTT(95))/1e6, "p95_ms")
			}
		})
	}
}

// BenchmarkFig4aDstreamWorkSharing reproduces Figure 4a: Dstream
// throughput under work sharing across all five architecture variants.
func BenchmarkFig4aDstreamWorkSharing(b *testing.B) { benchFigure(b, "4a") }

// BenchmarkFig4bLstreamWorkSharing reproduces Figure 4b: Lstream
// throughput under work sharing.
func BenchmarkFig4bLstreamWorkSharing(b *testing.B) { benchFigure(b, "4b") }

// BenchmarkFig5RTTCDF reproduces Figure 5: per-message RTT distributions
// under work sharing with feedback at 16 consumers. The p80_ms metric is
// the CDF's 80th percentile (the paper's headline CDF statistic).
func BenchmarkFig5RTTCDF(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig6aDstreamFeedbackRTT reproduces Figure 6a: Dstream median
// RTT under work sharing with feedback.
func BenchmarkFig6aDstreamFeedbackRTT(b *testing.B) { benchFigure(b, "6a") }

// BenchmarkFig6bLstreamFeedbackRTT reproduces Figure 6b: Lstream median
// RTT under work sharing with feedback.
func BenchmarkFig6bLstreamFeedbackRTT(b *testing.B) { benchFigure(b, "6b") }

// BenchmarkFig7aBroadcastThroughput reproduces Figure 7a: generic-workload
// broadcast throughput, one producer fanning out to N consumers.
func BenchmarkFig7aBroadcastThroughput(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFig7bBroadcastGatherRTT reproduces Figure 7b: median RTT when
// the producer also gathers one reply per consumer per broadcast.
func BenchmarkFig7bBroadcastGatherRTT(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkFig8BroadcastGatherCDF reproduces Figure 8: RTT distributions
// for broadcast and gather at a high consumer count (16).
func BenchmarkFig8BroadcastGatherCDF(b *testing.B) { benchFigure(b, "8") }

// --------------------------------------------------------------- ablations

// BenchmarkAblationWorkQueues compares one vs two shared work queues
// (§5.2 adopts two, citing the messaging trade-off study [26]).
func BenchmarkAblationWorkQueues(b *testing.B) {
	for _, queues := range []int{1, 2} {
		b.Run("queues="+itoa(queues), func(b *testing.B) {
			spec := benchSpec(core.DTS, workload.Dstream, pattern.WorkSharingName, 8)
			spec.Tuning.WorkQueues = queues
			runPoint(b, spec)
		})
	}
}

// reportHotPath reports the broker hot-path counter deltas of one run as
// benchmark metrics: wire buffer-pool hit rate, frames coalesced per write,
// delivery/ack batching factors, and residual routing-shard contention.
func reportHotPath(b *testing.B, before map[string]int64) {
	b.Helper()
	after := telemetry.Default.Snapshot().Counters
	d := func(name string) int64 { return after[name] - before[name] }
	if hits, misses := d("wire.bufpool_hits"), d("wire.bufpool_misses"); hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "bufpool_hit_rate")
	}
	if w := d("wire.coalesced_writes"); w > 0 {
		b.ReportMetric(float64(d("wire.frames_coalesced"))/float64(w), "frames_per_write")
	}
	if n := d("broker.delivery_batches"); n > 0 {
		b.ReportMetric(float64(d("broker.deliveries_batched"))/float64(n), "deliveries_per_batch")
	}
	if n := d("broker.ack_batches"); n > 0 {
		b.ReportMetric(float64(d("broker.acks_batched"))/float64(n), "acks_per_batch")
	}
	if c := d("broker.shard_contention"); c > 0 {
		b.ReportMetric(float64(c)/float64(b.N), "shard_contention/op")
	}
}

// BenchmarkAblationAckBatching compares per-message and batch-wise
// consumer acknowledgements (§5.2 enables batch acks).
func BenchmarkAblationAckBatching(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run("ackbatch="+itoa(batch), func(b *testing.B) {
			spec := benchSpec(core.DTS, workload.Dstream, pattern.WorkSharingName, 8)
			spec.Tuning.AckBatch = batch
			// The prefetch window must cover the batch or the batch can
			// never fill (see pattern.Config).
			spec.Tuning.Prefetch = 2 * batch
			before := telemetry.Default.Snapshot().Counters
			runPoint(b, spec)
			reportHotPath(b, before)
		})
	}
}

// BenchmarkAblationPrefetch sweeps the consumer QoS prefetch window.
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, prefetch := range []int{1, 8, 64} {
		b.Run("prefetch="+itoa(prefetch), func(b *testing.B) {
			spec := benchSpec(core.DTS, workload.Dstream, pattern.WorkSharingName, 8)
			spec.Tuning.Prefetch = prefetch
			runPoint(b, spec)
		})
	}
}

// BenchmarkAblationMSSBypass measures the §6 improvement proposal: letting
// facility-internal consumers bypass the load balancer.
func BenchmarkAblationMSSBypass(b *testing.B) {
	for _, bypass := range []bool{false, true} {
		name := "front-door"
		if bypass {
			name = "bypass-lb"
		}
		b.Run(name, func(b *testing.B) {
			spec := benchSpec(core.MSS, workload.Dstream, pattern.WorkSharingName, 8)
			spec.Deployment.BypassLB = bypass
			runPoint(b, spec)
		})
	}
}

// BenchmarkAblationDurabilityPayload crosses the fsync policy with the
// payload size on durable DTS queues: msgs_per_sec shows the durability
// tax each policy charges and how larger payloads amortize the per-append
// sync (the write is payload-dominated, the fsync is not).
func BenchmarkAblationDurabilityPayload(b *testing.B) {
	for _, fsync := range []string{"never", "interval", "always"} {
		for _, payload := range []int{512, 8192} {
			b.Run("fsync="+fsync+"/payload="+itoa(payload), func(b *testing.B) {
				spec := benchSpec(core.DTS, workload.Dstream, pattern.WorkSharingName, 8)
				spec.Workload.PayloadBytes = payload
				spec.Deployment.Durability = &scenario.Durability{Fsync: fsync, FsyncIntervalMS: 5}
				runPoint(b, spec)
			})
		}
	}
}

// BenchmarkOverheadVsDTS reproduces the §5.3 overhead numbers: PRS and MSS
// throughput overhead relative to the DTS baseline at 8 consumers.
func BenchmarkOverheadVsDTS(b *testing.B) {
	cells := benchCells(figure(b, "overhead"), []int{8})
	base, err := scenario.Run(context.Background(), cells[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range cells[1:] {
		b.Run(spec.Deployment.Architecture, func(b *testing.B) {
			before := telemetry.Default.Snapshot().Counters
			res := runPoint(b, spec)
			if res != nil {
				b.ReportMetric(metrics.Overhead(base.Result.Throughput, res.Throughput), "overhead_x")
			}
			reportHotPath(b, before)
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
