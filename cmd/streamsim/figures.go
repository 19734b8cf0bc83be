package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/scenario"
)

// runFigures reruns the paper's evaluation (§5) from scenario.Figures and
// prints one table per figure. -fig scale runs the client-scale grid
// instead; it is never part of -fig all. Larger -scale and -msgs approach
// the paper's full-size configuration at the cost of wall-clock time.
func runFigures(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.1, "fabric scale factor (1.0 = paper testbed rates)")
	cons := fs.String("cons", "1,4,16", "comma-separated consumer counts")
	msgs := fs.Int("msgs", 48, "messages per producer (Dstream; others scaled down)")
	runs := fs.Int("runs", 1, "runs per data point (paper: 3)")
	fig := fs.String("fig", "all", "which figure to run: 4a,4b,5,6a,6b,7a,7b,8,overhead,all, or scale (not in all)")
	clients := fs.String("clients", "1000,10000", "comma-separated total client counts for -fig scale (10⁴–10⁵ range supported)")
	budget := fs.Int("budget", 128, "goroutine budget per cell for -fig scale (see tuning.goroutine_budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := func(f scenario.Figure) bool { return f.ID == *fig }
	if *fig == "scale" {
		*cons = *clients // the client-scale grid's x-axis
	} else if *fig != "all" && !slices.ContainsFunc(scenario.Figures, known) {
		return fmt.Errorf("figures: unknown -fig %q", *fig)
	}
	counts, err := parseCounts(*cons)
	if err != nil {
		return err
	}
	failed := 0
	if *fig == "scale" {
		failed = clientScale(out, *scale, counts, *budget)
	}
	g := scenario.FigureGrid{Scale: *scale, Counts: counts, Msgs: *msgs, Runs: *runs}
	for _, f := range scenario.Figures {
		if *fig == "all" || known(f) {
			failed += printFigure(out, f, g)
		}
	}
	if failed > 0 {
		return fmt.Errorf("figures: %d sweep(s) failed", failed)
	}
	return nil
}

// printFigure runs one figure's cells and prints its table. Throughput and
// median-RTT figures have a column per consumer count; the others report
// at one count, with a workload column when they span several. It returns
// how many of its sweeps failed.
func printFigure(out io.Writer, f scenario.Figure, g scenario.FigureGrid) int {
	fmt.Fprintln(out, "==", f.Title)
	at := f.Counts(g.Counts)
	header := []string{"architecture"}
	if len(f.Workloads) > 1 {
		header = []string{"workload", "architecture"}
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1e6) }
	var format func(*scenario.Report) []string
	switch f.Report {
	case scenario.ReportThroughput, scenario.ReportMedianRTT:
		for _, n := range at {
			header = append(header, fmt.Sprintf("cons=%d", n))
		}
		format = throughput
		if f.Report == scenario.ReportMedianRTT {
			format = func(pt *scenario.Report) []string { return []string{ms(pt.Result.MedianRTT())} }
		}
	case scenario.ReportRTTProbes:
		header = append(header, "p50_ms", "p80_ms", "p95_ms")
		if f.TailShare {
			header = append(header, "frac<2*p50")
		}
		format = func(pt *scenario.Report) []string {
			r := pt.Result
			cols := []string{ms(r.PercentileRTT(50)), ms(r.PercentileRTT(80)), ms(r.PercentileRTT(95))}
			if f.TailShare {
				cols = append(cols, fmt.Sprintf("%.2f", r.FractionUnder(2*r.MedianRTT())))
			}
			return cols
		}
	case scenario.ReportOverhead:
		header = append(header, "throughput", "overhead_x")
		var base float64 // the first architecture's (DTS) throughput
		format = func(pt *scenario.Report) []string {
			thr := pt.Result.Throughput
			if pt.Spec.Deployment.Architecture == string(f.Architectures[0]) {
				base = thr
			}
			if base == 0 {
				return []string{fmt.Sprintf("%.0f", thr), "ERR"}
			}
			return []string{fmt.Sprintf("%.0f", thr), fmt.Sprintf("%.2f", metrics.Overhead(base, thr))}
		}
	}
	var rows []scenario.Spec
	for i, spec := range f.Cells(g) {
		if i%len(at) == 0 {
			rows = append(rows, spec)
		}
	}
	return sweepTable(out, header, rows, at, format)
}

// sweepTable sweeps each row's spec over counts, one cell after another on
// one deployment, and prints one table row per spec: its workload (when
// the header has that column) and architecture, then the formatted columns
// of each point ("-" for an infeasible one, "ERR" for the points a failed
// sweep did not reach). Health transitions the points recorded print above
// the table. It returns how many sweeps failed.
func sweepTable(out io.Writer, header []string, rows []scenario.Spec, counts []int,
	format func(*scenario.Report) []string) (failed int) {
	table := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	defer fmt.Fprintln(out)
	defer table.Flush()
	fmt.Fprintln(table, strings.Join(header, "\t"))
	for _, spec := range rows {
		row := []string{spec.Deployment.Architecture}
		if header[0] == "workload" {
			row = append([]string{spec.Workload.Name}, row...)
		}
		points, err := scenario.Sweep(context.Background(), spec, counts)
		for _, pt := range points {
			if pt.Infeasible {
				row = append(row, "-")
			} else {
				row = append(row, format(pt)...)
			}
			for _, e := range pt.HealthEvents {
				fmt.Fprintf(out, "   health %s cons=%d: %s\n", spec.Deployment.Architecture, pt.Spec.Consumers, e)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamsim: %s/%s: %v\n", spec.Pattern, spec.Deployment.Architecture, err)
			failed++
			for len(row) < len(header) {
				row = append(row, "ERR")
			}
		}
		fmt.Fprintln(table, strings.Join(row, "\t"))
	}
	return failed
}

// clientScale runs the clients×architecture grid (-fig scale): each cell
// is a work-sharing run with c/2 producers and c/2 consumers multiplexed
// onto pooled connections under a goroutine budget. Client NIC shaping and
// LB control-plane costs are disabled so the grid measures the client
// runtime, not the simulated fabric. Stunnel variants are left out: their
// connection limit makes every large cell infeasible by construction.
func clientScale(out io.Writer, scale float64, clients []int, budget int) int {
	fmt.Fprintf(out, "== Client scale: work-sharing throughput (msgs/sec), goroutine budget %d\n", budget)
	header := []string{"architecture"}
	halves := make([]int, len(clients))
	for i, c := range clients {
		header = append(header, fmt.Sprintf("clients=%d", c))
		halves[i] = max(1, c/2)
	}
	var rows []scenario.Spec
	for _, arch := range []core.ArchitectureName{core.DTS, core.PRSHAProxy, core.MSS} {
		rows = append(rows, scenario.Spec{
			Deployment: scenario.Deployment{Architecture: string(arch), Nodes: 3, FabricScale: scale,
				MemoryLimitBytes: 1 << 30, DisableClientShaping: true, FastControlPlane: true},
			Workload:            scenario.Workload{Name: "Dstream", PayloadBytes: 256},
			Pattern:             "work-sharing",
			MessagesPerProducer: 1,
			Runs:                1,
			Tuning:              scenario.Tuning{WorkQueues: 8, Prefetch: 8, Window: 4, GoroutineBudget: budget},
			TimeoutMS:           (15 * time.Minute).Milliseconds(),
		})
	}
	return sweepTable(out, header, rows, halves, throughput)
}

func throughput(pt *scenario.Report) []string {
	return []string{fmt.Sprintf("%.0f", pt.Result.Throughput)}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("figures: bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
