// Command bench is the repository benchmark: four closed-loop workloads
// over the three architectures (DTS, PRS, MSS), measured from outside
// through core.Deploy and the amqp client, plus a ladder of per-layer
// costs. See README.md in this directory for every definition.
//
//	go run ./bench -workload ws_small -seed 1            end-to-end metrics
//	go run ./bench -workload ws_small -seed 1 -trace 1   per-layer metrics (ladder + spans)
//	go run ./bench -ladder                               the ladder alone
//	go run ./bench -aa 5                                 A/A study against BENCHMARK.json
//
// The last line of standard output is one JSON object with the run's
// correctness, operation counts and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ws_small, ws_bulk, fb_wan, bg_durable")
		seed    = flag.Int64("seed", 1, "seed of the payload pool; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "target length of the measured part; scales message counts")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (ladder and traced run)")
		ladder  = flag.Bool("ladder", false, "run the per-layer ladder alone, without a workload")
		aa      = flag.Int("aa", 0, "A/A study: two sets of N runs per workload against BENCHMARK.json's bounds")
		outDir  = flag.String("out", "bench/out", "directory for trace files and durable queue data")
	)
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	r := &run{
		seed: *seed, outDir: *outDir, log: os.Stdout, trials: ladderTrials,
		budget: time.Duration(1.25 * *seconds * float64(time.Second)),
	}
	rep := &report{Metrics: map[string]metric{}}
	scale := *seconds / defaultSeconds
	var err error
	switch {
	case *aa > 0:
		os.Exit(aaStudy(*aa, *seconds, *outDir))
	case *ladder:
		err = r.ladder(rep, scale)
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want ws_small, ws_bulk, fb_wan or bg_durable)", *name))
		}
		w = w.scaled(scale, 0)
		if *trace != 0 {
			err = r.perLayer(w, rep, scale)
		} else {
			err = r.endToEnd(w, rep)
		}
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
