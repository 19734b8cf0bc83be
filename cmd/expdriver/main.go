// Command expdriver reruns the paper's complete evaluation (§5) and prints
// one table per figure: throughput for the work-sharing pattern (Figure 4),
// median RTT and CDF probes for work sharing with feedback (Figures 5-6),
// and broadcast / broadcast-and-gather results (Figures 7-8), plus the
// derived overhead-vs-DTS numbers quoted in the text.
//
// Every data point is one declarative scenario.Spec executed by the shared
// scenario engine — the same specs `streamsim scenario` runs from JSON.
//
// Usage:
//
//	expdriver [-scale 0.1] [-cons 1,4,16] [-msgs 48] [-runs 1] [-fig all]
//
// Larger -scale and -msgs approach the paper's full-size configuration at
// the cost of wall-clock time.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/workload"
)

var (
	scaleFlag   = flag.Float64("scale", 0.1, "fabric scale factor (1.0 = paper testbed rates)")
	consFlag    = flag.String("cons", "1,4,16", "comma-separated consumer counts")
	msgsFlag    = flag.Int("msgs", 48, "messages per producer (Dstream; others scaled down)")
	runsFlag    = flag.Int("runs", 1, "runs per data point (paper: 3)")
	figFlag     = flag.String("fig", "all", "which figure to run: 4a,4b,5,6a,6b,7a,7b,8,overhead,all, or scale/failover (not in all)")
	clientsFlag = flag.String("clients", "1000,10000", "comma-separated total client counts for -fig scale (10⁴–10⁵ range supported)")
	budgetFlag  = flag.Int("budget", 128, "goroutine budget per cell for -fig scale (see tuning.goroutine_budget)")
	parFlag     = flag.Int("par", 2, "concurrent sweep cells for -fig scale (each cell deploys its own broker)")
)

func main() {
	flag.Parse()
	counts, err := parseCounts(*consFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expdriver:", err)
		os.Exit(1)
	}
	d := &driver{counts: counts}
	want := func(f string) bool { return *figFlag == "all" || *figFlag == f }

	if want("4a") {
		d.figure("Figure 4a: Dstream throughput, work sharing (msgs/sec)",
			workload.Dstream, "work-sharing", core.AllArchitectures, false)
	}
	if want("4b") {
		d.figure("Figure 4b: Lstream throughput, work sharing (msgs/sec)",
			workload.Lstream, "work-sharing", core.AllArchitectures, false)
	}
	if want("5") {
		d.cdf("Figure 5: RTT CDF probes, work sharing with feedback")
	}
	if want("6a") {
		d.figure("Figure 6a: Dstream median RTT, work sharing with feedback (ms)",
			workload.Dstream, "work-sharing-feedback", scenario.Fig56Architectures, true)
	}
	if want("6b") {
		d.figure("Figure 6b: Lstream median RTT, work sharing with feedback (ms)",
			workload.Lstream, "work-sharing-feedback", scenario.Fig56Architectures, true)
	}
	if want("7a") {
		d.figure("Figure 7a: generic broadcast throughput (msgs/sec)",
			workload.Generic, "broadcast", scenario.Fig78Architectures, false)
	}
	if want("7b") {
		d.figure("Figure 7b: generic broadcast+gather median RTT (ms)",
			workload.Generic, "broadcast-gather", scenario.Fig78Architectures, true)
	}
	if want("8") {
		d.fig8()
	}
	if want("overhead") {
		d.overhead()
	}
	// The client-scale sweep reaches 10⁴–10⁵ clients per cell; it runs
	// only when asked for, never as part of -fig all.
	if *figFlag == "scale" {
		d.clientScale()
	}
	// The failover drill kills a queue-master mid-run on a clustered
	// deployment; like scale, it runs only when asked for.
	if *figFlag == "failover" {
		d.failover()
	}
	if d.failed {
		os.Exit(1)
	}
}

type driver struct {
	counts []int
	failed bool
}

// spec is the paper's data point for one figure cell (consumers 0 leaves
// the counts to scenario.Sweep).
func (d *driver) spec(w workload.Workload, pat string, arch core.ArchitectureName, consumers int) scenario.Spec {
	spec := scenario.PaperPoint(arch, w.Name, pat, consumers, *scaleFlag, *msgsFlag)
	spec.Runs = *runsFlag
	// One deadline covers the whole run (production plus drain), so
	// allow what the old per-phase 5-minute budgets added up to.
	spec.TimeoutMS = (15 * time.Minute).Milliseconds()
	return spec
}

// figure runs one throughput or RTT sweep and prints the paper-style table:
// architectures as rows, consumer counts as columns.
func (d *driver) figure(title string, w workload.Workload, pat string,
	archs []core.ArchitectureName, rtt bool) {
	fmt.Println("==", title)
	header := []string{"architecture"}
	for _, n := range d.counts {
		header = append(header, fmt.Sprintf("cons=%d", n))
	}
	rows := [][]string{header}
	for _, arch := range archs {
		row := []string{string(arch)}
		points, err := scenario.Sweep(context.Background(), d.spec(w, pat, arch, 0), d.counts)
		for _, pt := range points {
			switch {
			case pt.Infeasible:
				row = append(row, "-")
			case rtt:
				row = append(row, fmt.Sprintf("%.1f", float64(pt.Result.MedianRTT())/1e6))
			default:
				row = append(row, fmt.Sprintf("%.0f", pt.Result.Throughput))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %s/%s: %v\n", title, arch, err)
			d.failed = true
			for len(row) < len(header) {
				row = append(row, "ERR")
			}
		}
		rows = append(rows, row)
		printHealth(string(arch), points)
	}
	printTable(rows)
	fmt.Println()
}

// printHealth surfaces any health transitions a sweep's cells recorded,
// one line per event, labeled with the cell's consumer count. Healthy
// sweeps print nothing.
func printHealth(label string, points []*scenario.Report) {
	for _, pt := range points {
		for _, e := range pt.HealthEvents {
			fmt.Printf("   health %s cons=%d: %s\n", label, pt.Spec.Consumers, e)
		}
	}
}

// cdf prints Figure 5's distribution probes at a high consumer count.
func (d *driver) cdf(title string) {
	fmt.Println("==", title)
	n := d.counts[len(d.counts)-1]
	rows := [][]string{{"workload", "architecture", "p50_ms", "p80_ms", "p95_ms", "frac<2*p50"}}
	for _, w := range []workload.Workload{workload.Dstream, workload.Lstream} {
		for _, arch := range scenario.Fig56Architectures {
			rep, err := scenario.Run(context.Background(), d.spec(w, "work-sharing-feedback", arch, n))
			if err != nil {
				fmt.Fprintf(os.Stderr, "expdriver: fig5 %s/%s: %v\n", w.Name, arch, err)
				d.failed = true
				continue
			}
			r := rep.Result
			rows = append(rows, []string{
				w.Name, string(arch),
				fmt.Sprintf("%.1f", float64(r.PercentileRTT(50))/1e6),
				fmt.Sprintf("%.1f", float64(r.PercentileRTT(80))/1e6),
				fmt.Sprintf("%.1f", float64(r.PercentileRTT(95))/1e6),
				fmt.Sprintf("%.2f", r.FractionUnder(2*r.MedianRTT())),
			})
		}
	}
	printTable(rows)
	fmt.Println()
}

func (d *driver) fig8() {
	fmt.Println("== Figure 8: broadcast+gather RTT CDF probes")
	n := d.counts[len(d.counts)-1]
	rows := [][]string{{"architecture", "p50_ms", "p80_ms", "p95_ms"}}
	for _, arch := range scenario.Fig78Architectures {
		rep, err := scenario.Run(context.Background(), d.spec(workload.Generic, "broadcast-gather", arch, n))
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: fig8 %s: %v\n", arch, err)
			d.failed = true
			continue
		}
		r := rep.Result
		rows = append(rows, []string{
			string(arch),
			fmt.Sprintf("%.1f", float64(r.PercentileRTT(50))/1e6),
			fmt.Sprintf("%.1f", float64(r.PercentileRTT(80))/1e6),
			fmt.Sprintf("%.1f", float64(r.PercentileRTT(95))/1e6),
		})
	}
	printTable(rows)
	fmt.Println()
}

// overhead prints the §5.3 derived metric at the mid consumer count.
func (d *driver) overhead() {
	fmt.Println("== Streaming overhead vs DTS (work sharing, Dstream)")
	n := d.counts[len(d.counts)/2]
	base := d.point(core.DTS, n)
	if base == nil {
		return
	}
	rows := [][]string{{"architecture", "throughput", "overhead_x"}}
	rows = append(rows, []string{"DTS", fmt.Sprintf("%.0f", base.Throughput), "1.00"})
	for _, arch := range []core.ArchitectureName{core.PRSHAProxy, core.MSS} {
		r := d.point(arch, n)
		if r == nil {
			continue
		}
		rows = append(rows, []string{string(arch),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2f", metrics.Overhead(base.Throughput, r.Throughput))})
	}
	printTable(rows)
	fmt.Println()
}

// scaleArchs are the rows of the client-scale grid; Stunnel variants are
// excluded because their connection limit makes every large cell
// infeasible by construction.
var scaleArchs = []core.ArchitectureName{core.DTS, core.PRSHAProxy, core.MSS}

// clientScale runs the clients×architecture grid (-fig scale): each cell
// is a work-sharing run with c/2 producers and c/2 consumers multiplexed
// onto pooled connections under a goroutine budget, and independent cells
// run -par at a time on their own deployments. Client NIC shaping and LB
// control-plane costs are disabled so the grid measures the client
// runtime, not the simulated fabric.
func (d *driver) clientScale() {
	clients, err := parseCounts(*clientsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "expdriver:", err)
		d.failed = true
		return
	}
	fmt.Printf("== Client scale: work-sharing throughput (msgs/sec), goroutine budget %d\n", *budgetFlag)
	header := []string{"architecture"}
	halves := make([]int, len(clients))
	for i, c := range clients {
		header = append(header, fmt.Sprintf("clients=%d", c))
		halves[i] = max(1, c/2)
	}
	rows := [][]string{header}
	for _, arch := range scaleArchs {
		spec := scenario.Spec{
			Deployment: scenario.Deployment{
				Architecture:         string(arch),
				Nodes:                3,
				FabricScale:          *scaleFlag,
				MemoryLimitBytes:     1 << 30,
				DisableClientShaping: true,
				FastControlPlane:     true,
			},
			Workload:            scenario.Workload{Name: "Dstream", PayloadBytes: 256},
			Pattern:             "work-sharing",
			MessagesPerProducer: 1,
			Runs:                1,
			Tuning: scenario.Tuning{
				WorkQueues:      8,
				Prefetch:        8,
				Window:          4,
				GoroutineBudget: *budgetFlag,
			},
			TimeoutMS: (15 * time.Minute).Milliseconds(),
		}
		row := []string{string(arch)}
		points, err := scenario.Sweep(context.Background(), spec, halves,
			scenario.WithParallel(*parFlag))
		for _, pt := range points {
			if pt.Infeasible {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.0f", pt.Result.Throughput))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: scale/%s: %v\n", arch, err)
			d.failed = true
			for len(row) < len(header) {
				row = append(row, "ERR")
			}
		}
		rows = append(rows, row)
	}
	printTable(rows)
	fmt.Println()
}

// failover runs the clustered node-kill drill (-fig failover): a 3-node
// ring-placed DTS deployment, durable work-sharing queues, and a fault
// that hard-kills the busiest queue master 40% of the way through. The
// table shows the failover counters next to the delivered count — zero
// confirmed loss means consumed >= the message budget.
func (d *driver) failover() {
	fmt.Println("== Cluster failover: node-kill on the busiest queue master (DTS, 3 nodes, ring placement)")
	spec := scenario.Spec{
		Deployment: scenario.Deployment{
			Architecture:         string(core.DTS),
			ClusterNodes:         3,
			Placement:            "ring",
			FabricScale:          *scaleFlag,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Reconnect:            &scenario.Reconnect{MaxAttempts: 400, DelayMS: 5, MaxDelayMS: 25},
			Durability:           &scenario.Durability{Fsync: "always"},
		},
		Workload:            scenario.Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           6,
		Consumers:           6,
		MessagesPerProducer: *msgsFlag,
		Runs:                *runsFlag,
		Tuning:              scenario.Tuning{WorkQueues: 6},
		Faults:              []scenario.Fault{{Kind: scenario.FaultNodeKill, AtFraction: 0.4}},
		TimeoutMS:           (15 * time.Minute).Milliseconds(),
	}
	rep, err := scenario.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: failover: %v\n", err)
		d.failed = true
		return
	}
	printTable([][]string{
		{"consumed", "node_kills", "redirects", "federated", "health_events", "throughput"},
		{
			fmt.Sprintf("%d", rep.Result.Consumed),
			fmt.Sprintf("%d", rep.NodeKills),
			fmt.Sprintf("%d", rep.Redirects),
			fmt.Sprintf("%d", rep.FederatedMsgs),
			fmt.Sprintf("%d", len(rep.HealthEvents)),
			fmt.Sprintf("%.0f", rep.Result.Throughput),
		},
	})
	printHealth("failover", []*scenario.Report{rep})
	fmt.Println()
}

func (d *driver) point(arch core.ArchitectureName, consumers int) *metrics.Result {
	rep, err := scenario.Run(context.Background(), d.spec(workload.Dstream, "work-sharing", arch, consumers))
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: overhead %s: %v\n", arch, err)
		d.failed = true
		return nil
	}
	return rep.Result
}

func printTable(rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad consumer count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
