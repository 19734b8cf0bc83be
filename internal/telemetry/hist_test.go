package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketIdxContinuity(t *testing.T) {
	// Every value maps into range, and bucket upper bounds are the
	// largest value mapping to their bucket.
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1 << 40, math.MaxInt64}
	for _, v := range vals {
		idx := bucketIdx(v)
		if idx < 0 || idx >= histBucketLen {
			t.Fatalf("v=%d: idx %d out of range", v, idx)
		}
		up := bucketUpper(idx)
		if v > up {
			t.Fatalf("v=%d above its bucket upper %d", v, up)
		}
		if bucketIdx(up) != idx {
			t.Fatalf("upper %d of bucket %d maps to bucket %d", up, idx, bucketIdx(up))
		}
		if up != math.MaxInt64 && bucketIdx(up+1) != idx+1 {
			t.Fatalf("upper+1 %d of bucket %d maps to bucket %d, want %d", up+1, idx, bucketIdx(up+1), idx+1)
		}
	}
	// Bucket uppers are strictly increasing.
	for i := 1; i < histBucketLen; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket uppers not increasing at %d", i)
		}
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := &Histogram{}
	var sum int64
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
		sum += i * 1000
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != sum {
		t.Fatalf("snapshot count=%d sum=%d want 100/%d", s.Count, s.Sum, sum)
	}
}

// exactPercentile is the sorted-slice nearest-rank percentile the
// figures were originally computed from.
func exactPercentile(sorted []int64, p float64) int64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileEquivalence locks in the histogram's accuracy contract:
// on a fixed sample set, every percentile is within one bucket width
// of the exact sorted-slice percentile (and never below it).
func TestQuantileEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~6 decades, like RTTs spanning µs to s.
		v := int64(math.Exp(rng.Float64()*13.8)) + 1
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	for _, p := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		exact := exactPercentile(samples, p)
		got := s.Quantile(p)
		if got < exact {
			t.Fatalf("p%.1f: histogram %d below exact %d", p, got, exact)
		}
		if width := BucketWidth(exact); got-exact >= width {
			t.Fatalf("p%.1f: histogram %d vs exact %d differs by %d >= bucket width %d",
				p, got, exact, got-exact, width)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	s := (&Histogram{}).Snapshot()
	if s.Quantile(50) != 0 || s.FractionAtOrBelow(1) != 0 {
		t.Fatal("empty snapshot queries must be zero")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty CDF must be nil")
	}
	var nilSnap *HistSnapshot
	if nilSnap.Quantile(50) != 0 || nilSnap.CDF(4) != nil || nilSnap.FractionAtOrBelow(1) != 0 {
		t.Fatal("nil snapshot queries must be zero")
	}
}

func TestCDFFromBuckets(t *testing.T) {
	h := &Histogram{}
	for i := int64(0); i < 1000; i++ {
		h.Record(i * 1000)
	}
	cdf := h.Snapshot().CDF(20)
	if len(cdf) != 20 {
		t.Fatalf("points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].P < cdf[i-1].P || cdf[i].V < cdf[i-1].V {
			t.Fatalf("CDF not monotonic at %d: %+v", i, cdf)
		}
	}
	if last := cdf[len(cdf)-1].P; last != 1 {
		t.Fatalf("CDF must end at 1, got %v", last)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	all := &Histogram{}
	for i := int64(1); i <= 50; i++ {
		a.Record(i * 100)
		all.Record(i * 100)
	}
	for i := int64(51); i <= 100; i++ {
		b.Record(i * 100)
		all.Record(i * 100)
	}
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	want := all.Snapshot()
	if sa.Count != want.Count || sa.Sum != want.Sum {
		t.Fatalf("merge count/sum = %d/%d want %d/%d", sa.Count, sa.Sum, want.Count, want.Sum)
	}
	if len(sa.Buckets) != len(want.Buckets) {
		t.Fatalf("merge buckets = %d want %d", len(sa.Buckets), len(want.Buckets))
	}
	for i := range sa.Buckets {
		if sa.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: %+v want %+v", i, sa.Buckets[i], want.Buckets[i])
		}
	}
	// Merging nil or empty is a no-op.
	sa.Merge(nil)
	sa.Merge(&HistSnapshot{})
	if sa.Count != want.Count {
		t.Fatal("no-op merge changed count")
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{100e6, 200e6, 300e6, 400e6} {
		h.Record(v)
	}
	s := h.Snapshot()
	if got := s.FractionAtOrBelow(250e6); got != 0.5 {
		t.Fatalf("FractionAtOrBelow(250ms) = %v", got)
	}
	if got := s.FractionAtOrBelow(1e9); got != 1 {
		t.Fatalf("FractionAtOrBelow(1s) = %v", got)
	}
	// The p80 bucket itself is included at its own upper bound.
	if got := s.FractionAtOrBelow(s.Quantile(80)); got < 0.75 {
		t.Fatalf("p80 fraction = %v", got)
	}
}

func TestRecordNegativeClamps(t *testing.T) {
	h := &Histogram{}
	h.Record(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Buckets[0].Upper != 0 {
		t.Fatalf("negative record: %+v", s)
	}
}
