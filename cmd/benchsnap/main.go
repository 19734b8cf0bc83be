// Command benchsnap converts `go test -bench` output on stdin into a
// machine-readable JSON snapshot, seeding the repo's performance
// trajectory: the bench-snapshot make target runs the short figure
// benchmarks with -benchmem and writes BENCH_<pr>.json, so successive
// PRs can be diffed metric-by-metric instead of eyeballing bench logs.
//
// The bench harness (TestMain in the root package) also prints one
// "TELEMETRY_SNAPSHOT: {...}" line after a bench run — the final
// process-wide telemetry snapshot, including the RTT histogram buckets
// and the peak queue depth watermark. benchsnap embeds it verbatim
// under "telemetry", so the perf trajectory captures tail latency and
// queue pressure, not just the per-benchmark means.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . | benchsnap -out BENCH_dev.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Snapshot is the full bench run.
type Snapshot struct {
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Telemetry is the final process-wide telemetry snapshot the bench
	// harness printed (histogram buckets, watermarks, counters);
	// embedded verbatim.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

// telemetryPrefix marks the harness's final telemetry snapshot line.
const telemetryPrefix = "TELEMETRY_SNAPSHOT: "

// parseBenchLine parses one "BenchmarkX-8  N  v unit  v unit ..." line,
// returning ok=false for non-benchmark lines. procs is the GOMAXPROCS the
// benchmarks ran at: go test appends "-<procs>" to every name when it is
// not 1, and the suffix is dropped so that names — which benchdiff matches
// on — are the same in a baseline taken on one machine and a run on
// another. (Kept, a 2-core baseline and a 4-core CI runner share no
// benchmark and the allocs gate passes vacuously.)
func parseBenchLine(line string, procs int) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := fields[0]
	if procs > 1 {
		name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
	}
	b := Benchmark{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// parse reads the output of benchmarks run at GOMAXPROCS procs, collecting
// benchmark lines and the harness's telemetry snapshot line.
func parse(r io.Reader, procs int) (Snapshot, error) {
	snap := Snapshot{GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 16*1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line, procs); ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
			continue
		}
		if rest, ok := strings.CutPrefix(line, telemetryPrefix); ok {
			if raw := json.RawMessage(rest); json.Valid(raw) {
				snap.Telemetry = raw
			} else {
				fmt.Fprintln(os.Stderr, "benchsnap: ignoring malformed telemetry snapshot line")
			}
		}
	}
	return snap, sc.Err()
}

func main() {
	out := flag.String("out", "", "output JSON path (default stdout)")
	flag.Parse()
	// benchsnap sits at the end of the pipe the benchmarks write to: same
	// machine, same environment, same GOMAXPROCS.
	snap, err := parse(os.Stdin, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}
