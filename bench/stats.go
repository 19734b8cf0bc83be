package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics, without modifying vals. An empty input is NaN
// so a metric computed from no samples fails the finite-value check
// instead of reading as zero.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quantileNs is quantile over nanosecond samples.
func quantileNs(ns []int64, q float64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return quantile(f, q)
}

// quietOf reduces K trial values to the second-best one: the second
// highest rate (higher), the second lowest cost. Interference on a shared
// box only ever makes a trial slower, and comes in bursts that can spoil
// most of a run's trials, so the best end of the distribution is the
// code's own cost; the runner-up is used instead of the single best
// trial because the extreme is exposed to lucky scheduling (a stalled
// consumer batches more and costs less CPU per message). Measured on
// this box (README, "Why the second-best trial"): across same-code runs
// the runner-up repeats to 8 % in calm and noisy hours alike, the best
// to 19 %, the upper quartile to 30 %. One trial is returned as it is;
// no trials give NaN.
func quietOf(vals []float64, higher bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	if higher {
		return s[len(s)-2]
	}
	return s[1]
}

// spreadIQR is the distance between the first and third quartile as a
// share of the median, the driver's steadiness measure. It uses the
// exclusive method of Python's statistics.quantiles(values, n=4).
func spreadIQR(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative heap allocation count. It stops the world,
// so it is only ever read outside timed sections.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return math.NaN()
}

// epoch anchors the benchmark's monotonic clock; now() is nanoseconds
// since process start and is what every span and latency sample uses.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }
