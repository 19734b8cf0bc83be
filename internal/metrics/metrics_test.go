package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ds2hpc/internal/telemetry"
)

// within asserts got is at or above exact and within one histogram
// bucket width of it — the streaming histogram's accuracy contract.
func within(t *testing.T, label string, got, exact time.Duration) {
	t.Helper()
	if got < exact {
		t.Fatalf("%s = %v below exact %v", label, got, exact)
	}
	if width := telemetry.BucketWidth(int64(exact)); int64(got-exact) >= width {
		t.Fatalf("%s = %v, want within %v of %v", label, got, time.Duration(width), exact)
	}
}

func TestCollectorBasics(t *testing.T) {
	c := NewCollector()
	c.Start()
	c.AddConsumed(10)
	c.AddProduced(12)
	c.AddErrors(1)
	c.AddRTT(30 * time.Millisecond)
	c.AddRTT(10 * time.Millisecond)
	c.AddRTT(20 * time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	r := c.Snapshot()
	if r.Consumed != 10 || r.Produced != 12 || r.Errors != 1 {
		t.Fatalf("counters %+v", r)
	}
	if r.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if r.RTTCount() != 3 {
		t.Fatalf("RTT count = %d", r.RTTCount())
	}
	within(t, "median", r.MedianRTT(), 20*time.Millisecond)
	// Histogram buckets are ascending by construction.
	for i := 1; i < len(r.RTT.Buckets); i++ {
		if r.RTT.Buckets[i].Upper < r.RTT.Buckets[i-1].Upper {
			t.Fatal("buckets not sorted")
		}
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	c.Start()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			consumed := c.ConsumedShard(i)
			for j := 0; j < 100; j++ {
				consumed.Add(1)
				c.AddRTT(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	r := c.Snapshot()
	if r.Consumed != 800 || r.RTTCount() != 800 {
		t.Fatalf("lost samples: %d %d", r.Consumed, r.RTTCount())
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.AddRTT(time.Duration(i) * time.Millisecond)
	}
	r := c.Snapshot()
	within(t, "p50", r.PercentileRTT(50), 50*time.Millisecond)
	within(t, "p99", r.PercentileRTT(99), 99*time.Millisecond)
	within(t, "p0", r.PercentileRTT(0), time.Millisecond)
	within(t, "p100", r.PercentileRTT(100), 100*time.Millisecond)
	within(t, "p>100", r.PercentileRTT(150), 100*time.Millisecond)
}

// TestHistogramPercentileEquivalence is the bounded-memory contract:
// on a fixed sample set, every histogram percentile is within one
// bucket width of the exact sorted-slice nearest-rank percentile the
// old unbounded collector computed.
func TestHistogramPercentileEquivalence(t *testing.T) {
	// Bimodal fixed set, like a fault run: fast intra-site RTTs plus a
	// slow mode behind a flap.
	var samples []time.Duration
	for i := 0; i < 900; i++ {
		samples = append(samples, time.Duration(200+i)*time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		samples = append(samples, time.Duration(80+i)*time.Millisecond)
	}
	c := NewCollector()
	for _, d := range samples {
		c.AddRTT(d)
	}
	r := c.Snapshot()

	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	exact := func(p float64) time.Duration {
		if p <= 0 {
			return sorted[0]
		}
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		return sorted[rank-1]
	}
	for _, p := range []float64{1, 10, 50, 80, 90, 95, 99, 99.9, 100} {
		within(t, "percentile", r.PercentileRTT(p), exact(p))
	}
}

func TestPercentileEmpty(t *testing.T) {
	r := NewCollector().Snapshot()
	if r.MedianRTT() != 0 {
		t.Fatal("empty median should be zero")
	}
	if (&Result{}).MedianRTT() != 0 {
		t.Fatal("nil-histogram median should be zero")
	}
}

func TestFractionUnder(t *testing.T) {
	c := NewCollector()
	for _, d := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		300 * time.Millisecond, 400 * time.Millisecond,
	} {
		c.AddRTT(d)
	}
	r := c.Snapshot()
	if got := r.FractionUnder(250 * time.Millisecond); got != 0.5 {
		t.Fatalf("FractionUnder = %f", got)
	}
	if got := r.FractionUnder(time.Second); got != 1.0 {
		t.Fatalf("FractionUnder(max) = %f", got)
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(39000, 19000); math.Abs(got-2.05) > 0.01 {
		t.Errorf("overhead = %f", got)
	}
	if !math.IsInf(Overhead(100, 0), 1) {
		t.Error("zero throughput should be infinite overhead")
	}
}

func TestMergeAveragesThroughput(t *testing.T) {
	mk := func(tp float64, consumed int64, dur time.Duration, rtts ...time.Duration) *Result {
		c := NewCollector()
		for _, d := range rtts {
			c.AddRTT(d)
		}
		r := c.Snapshot()
		r.Throughput, r.Consumed, r.Duration = tp, consumed, dur
		return r
	}
	runs := []*Result{
		mk(100, 10, time.Second, 3*time.Millisecond),
		mk(200, 20, 3*time.Second, time.Millisecond, 2*time.Millisecond),
	}
	m := Merge(runs)
	if m.Throughput != 150 {
		t.Errorf("avg throughput = %f", m.Throughput)
	}
	if m.Consumed != 30 {
		t.Errorf("consumed = %d", m.Consumed)
	}
	if m.Duration != 2*time.Second {
		t.Errorf("duration = %v", m.Duration)
	}
	if m.RTTCount() != 3 {
		t.Errorf("pooled RTT count = %d", m.RTTCount())
	}
	within(t, "merged p100", m.PercentileRTT(100), 3*time.Millisecond)
	if Merge(nil).Throughput != 0 {
		t.Error("empty merge should be zero")
	}
}

// TestCollectorMemoryBounded is the point of the histogram move: a
// steady-state AddRTT allocates nothing, so collector memory no longer
// grows with message count.
func TestCollectorMemoryBounded(t *testing.T) {
	c := NewCollector()
	c.AddRTT(time.Millisecond) // warm
	got := testing.AllocsPerRun(200, func() {
		c.AddRTT(42 * time.Millisecond)
		c.AddConsumed(1)
	})
	if got > 0 {
		t.Fatalf("AddRTT/AddConsumed allocate %.1f objects/op, want 0", got)
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(samples []int16, p uint8) bool {
		if len(samples) == 0 {
			return true
		}
		c := NewCollector()
		var ds []time.Duration
		for _, s := range samples {
			d := time.Duration(int(s)+40000) * time.Microsecond
			ds = append(ds, d)
			c.AddRTT(d)
		}
		got := c.Snapshot().PercentileRTT(float64(p % 101))
		// The percentile must land within one bucket width above one
		// of the recorded samples.
		for _, d := range ds {
			if got >= d && int64(got-d) < telemetry.BucketWidth(int64(d)) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
