package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram is log-linear (HdrHistogram-style): values below
// 2^histSubBits land in unit-width linear buckets; every power-of-two
// range above that is split into histSubBuckets equal sub-buckets. The
// relative bucket width is therefore at most 1/histSubBuckets (~3%),
// and the whole int64 range fits in a fixed array — bounded memory no
// matter how many samples are recorded.
// histRegions counts the linear region plus one region per exponent
// from histSubBits to 62 (int64 values never set bit 63), so the last
// bucket's upper bound is exactly math.MaxInt64.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	histRegions    = 64 - histSubBits
	histBucketLen  = histSubBuckets * histRegions
)

// Histogram is a lock-free streaming histogram of non-negative int64
// values (nanoseconds, bytes). Record is two atomic adds; Snapshot
// freezes the buckets into a mergeable, queryable HistSnapshot. The
// zero value is ready to use.
type Histogram struct {
	buckets [histBucketLen]atomic.Int64
	sum     atomic.Int64
}

// bucketIdx maps a value to its bucket.
func bucketIdx(v int64) int {
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	mant := int(u>>(uint(exp)-histSubBits)) & (histSubBuckets - 1)
	return (exp-histSubBits+1)<<histSubBits + mant
}

// bucketUpper returns the largest value that maps to bucket idx.
func bucketUpper(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	region := idx >> histSubBits
	exp := uint(region + histSubBits - 1)
	mant := int64(idx & (histSubBuckets - 1))
	low := int64(1)<<exp + mant<<(exp-histSubBits)
	width := int64(1) << (exp - histSubBits)
	return low + width - 1
}

// BucketWidth reports the width of the bucket containing v — the
// histogram's resolution at that magnitude, and the error bound of
// quantiles extracted near it.
func BucketWidth(v int64) int64 {
	idx := bucketIdx(v)
	if idx < histSubBuckets {
		return 1
	}
	exp := uint(idx>>histSubBits + histSubBits - 1)
	return int64(1) << (exp - histSubBits)
}

// Record adds one sample. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIdx(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of recorded samples.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot freezes the histogram into a sparse, queryable snapshot.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: bucketUpper(i), Count: n})
			s.Count += n
		}
	}
	s.Sum = h.sum.Load()
	return s
}

// Bucket is one non-empty histogram bucket: Count samples at or below
// Upper (and above the previous bucket's Upper).
type Bucket struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistSnapshot is a frozen histogram: sparse non-cumulative buckets in
// ascending order plus sample count and sum. It is JSON-serializable
// and mergeable, and all distribution queries (quantiles, CDF) read
// from it.
type HistSnapshot struct {
	Buckets []Bucket `json:"buckets,omitempty"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
}

// Merge pools other's buckets into s (bucket boundaries are shared by
// construction, so merging is exact).
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil || other.Count == 0 {
		return
	}
	merged := make([]Bucket, 0, len(s.Buckets)+len(other.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Upper < other.Buckets[j].Upper):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].Upper < s.Buckets[i].Upper:
			merged = append(merged, other.Buckets[j])
			j++
		default:
			merged = append(merged, Bucket{Upper: s.Buckets[i].Upper, Count: s.Buckets[i].Count + other.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
	s.Count += other.Count
	s.Sum += other.Sum
}

// Quantile returns the p-th percentile (p in [0,100]) as the upper
// bound of the bucket holding the nearest-rank sample — within one
// bucket width above the exact order statistic. Zero when empty.
func (s *HistSnapshot) Quantile(p float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Upper
		}
	}
	return s.Buckets[len(s.Buckets)-1].Upper
}

// FractionAtOrBelow reports the fraction of samples whose bucket lies
// entirely at or below v (conservative: the bucket straddling v is
// excluded).
func (s *HistSnapshot) FractionAtOrBelow(v int64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	var cum int64
	for _, b := range s.Buckets {
		if b.Upper > v {
			break
		}
		cum += b.Count
	}
	return float64(cum) / float64(s.Count)
}

// CDFPoint is one point of an empirical CDF read from the buckets.
type CDFPoint struct {
	V int64   // bucket upper bound
	P float64 // cumulative probability in (0, 1]
}

// CDF returns up to points evenly rank-spaced CDF points, ending at
// P=1. Mirrors the sorted-slice CDF the figures were originally
// derived from, but reads bucket boundaries instead of raw samples.
func (s *HistSnapshot) CDF(points int) []CDFPoint {
	if s == nil || s.Count == 0 || points <= 0 {
		return nil
	}
	if int64(points) > s.Count {
		points = int(s.Count)
	}
	out := make([]CDFPoint, 0, points)
	bi, cum := 0, int64(0)
	for i := 1; i <= points; i++ {
		rank := int64(i) * s.Count / int64(points)
		for bi < len(s.Buckets) && cum+s.Buckets[bi].Count < rank {
			cum += s.Buckets[bi].Count
			bi++
		}
		b := s.Buckets[min(bi, len(s.Buckets)-1)]
		cumAt := cum + b.Count
		out = append(out, CDFPoint{V: b.Upper, P: float64(cumAt) / float64(s.Count)})
	}
	return out
}
