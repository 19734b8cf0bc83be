// Package metrics collects and summarizes the two quantities the paper
// reports — aggregate consumer throughput (messages per second) and
// per-message round-trip time — plus the derived streaming overhead of an
// architecture relative to the DTS baseline and the RTT CDFs of Figures 5
// and 8.
//
// The Collector is built on internal/telemetry probes: counts are sharded
// atomic counters and RTTs stream into a fixed-bucket log-scale histogram,
// so recording is mutex-free on the hot path and memory stays bounded no
// matter how many messages a run moves. Percentiles, CDFs and
// fraction-under queries all read from the histogram's buckets, within one
// bucket width (~3% relative) of the exact sorted-sample statistics the
// figures were originally computed from.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ds2hpc/internal/telemetry"
)

// Default aliases telemetry.Default for bench/, its only reader; the next change to bench/ removes it.
var Default = telemetry.Default

// rttHist mirrors every recorded RTT into the process-wide telemetry
// registry, so exporters (and the bench snapshot) see the cumulative
// tail-latency distribution across all runs.
var rttHist = telemetry.Default.Histogram("rtt_ns")

// Collector accumulates RTT samples and message counts concurrently.
// All recording paths are lock-free; Snapshot freezes a Result.
type Collector struct {
	consumed telemetry.Counter
	produced telemetry.Counter
	errors   telemetry.Counter
	rtt      telemetry.Histogram
	startNs  atomic.Int64
	endNs    atomic.Int64
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Start marks the experiment start time.
func (c *Collector) Start() { c.startNs.Store(time.Now().UnixNano()) }

// Stop marks the experiment end time.
func (c *Collector) Stop() { c.endNs.Store(time.Now().UnixNano()) }

// AddRTT records one round-trip sample.
func (c *Collector) AddRTT(d time.Duration) {
	c.rtt.Record(int64(d))
	rttHist.Record(int64(d))
}

// AddConsumed counts delivered messages.
func (c *Collector) AddConsumed(n int64) { c.consumed.Add(n) }

// AddProduced counts published messages.
func (c *Collector) AddProduced(n int64) { c.produced.Add(n) }

// AddErrors counts failures (rejected publishes, timeouts).
func (c *Collector) AddErrors(n int64) { c.errors.Add(n) }

// ConsumedShard returns a per-instance shard of the consumed counter so
// concurrent consumer loops increment disjoint cache lines; capture it
// once at loop setup.
func (c *Collector) ConsumedShard(i int) *telemetry.CounterShard { return c.consumed.Shard(i) }

// ProducedShard is the producer-side counterpart of ConsumedShard.
func (c *Collector) ProducedShard(i int) *telemetry.CounterShard { return c.produced.Shard(i) }

// ConsumedTotal reads the live consumed count (telemetry observers poll
// this while a run is in flight).
func (c *Collector) ConsumedTotal() int64 { return c.consumed.Load() }

// ProducedTotal reads the live produced count.
func (c *Collector) ProducedTotal() int64 { return c.produced.Load() }

// ErrorsTotal reads the live error count.
func (c *Collector) ErrorsTotal() int64 { return c.errors.Load() }

// Snapshot freezes the collector into a Result.
func (c *Collector) Snapshot() *Result {
	end := c.endNs.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	var dur time.Duration
	if start := c.startNs.Load(); start != 0 && end > start {
		dur = time.Duration(end - start)
	}
	r := &Result{
		Duration: dur,
		Consumed: c.consumed.Load(),
		Produced: c.produced.Load(),
		Errors:   c.errors.Load(),
		RTT:      c.rtt.Snapshot(),
	}
	if dur > 0 {
		r.Throughput = float64(r.Consumed) / dur.Seconds()
	}
	return r
}

// Result is one experiment run's summary.
type Result struct {
	Duration   time.Duration
	Consumed   int64
	Produced   int64
	Errors     int64
	Throughput float64 // aggregate msgs/sec across all consumers
	// RTT is the streaming histogram of round-trip samples (ns);
	// percentile and CDF queries read from its buckets.
	RTT *telemetry.HistSnapshot
}

// RTTCount reports the number of recorded round-trip samples.
func (r *Result) RTTCount() int64 {
	if r.RTT == nil {
		return 0
	}
	return r.RTT.Count
}

// MedianRTT returns the 50th percentile RTT (0 if no samples).
func (r *Result) MedianRTT() time.Duration { return r.PercentileRTT(50) }

// PercentileRTT returns the p-th percentile RTT from the histogram
// buckets — within one bucket width of the exact nearest-rank sample.
func (r *Result) PercentileRTT(p float64) time.Duration {
	return time.Duration(r.RTT.Quantile(p))
}

// FractionUnder reports the fraction of RTTs at or below the threshold
// (e.g. the paper's "PRS keeps 80% of message RTTs under 0.7 seconds").
func (r *Result) FractionUnder(d time.Duration) float64 {
	return r.RTT.FractionAtOrBelow(int64(d))
}

// Overhead is the paper's derived metric: how much worse `other` is than
// the DTS baseline in throughput: base/other (2.0 = "2x overhead", i.e.
// half the baseline's throughput).
func Overhead(baseThroughput, otherThroughput float64) float64 {
	if otherThroughput <= 0 {
		return math.Inf(1)
	}
	return baseThroughput / otherThroughput
}

// Merge combines run results (averaging throughput, merging RTT
// histograms — exact, since all histograms share bucket boundaries),
// used to aggregate the paper's three runs per data point.
func Merge(runs []*Result) *Result {
	if len(runs) == 0 {
		return &Result{RTT: &telemetry.HistSnapshot{}}
	}
	out := &Result{RTT: &telemetry.HistSnapshot{}}
	var tp float64
	for _, r := range runs {
		out.Consumed += r.Consumed
		out.Produced += r.Produced
		out.Errors += r.Errors
		out.Duration += r.Duration
		tp += r.Throughput
		out.RTT.Merge(r.RTT)
	}
	out.Throughput = tp / float64(len(runs))
	out.Duration /= time.Duration(len(runs))
	return out
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("consumed=%d throughput=%.1f msg/s median_rtt=%v errors=%d",
		r.Consumed, r.Throughput, r.MedianRTT(), r.Errors)
}
