package scenario

import (
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/workload"
)

// FigureReport is what a figure's table shows.
type FigureReport int

const (
	// ReportThroughput and ReportMedianRTT are one msgs/sec or median-RTT
	// (ms) row per architecture, one column per consumer count.
	ReportThroughput FigureReport = iota
	ReportMedianRTT
	// ReportRTTProbes is the RTT distribution's p50/p80/p95 at the highest
	// consumer count, one row per workload and architecture.
	ReportRTTProbes
	// ReportOverhead is each architecture's throughput overhead against
	// the first (DTS) at the middle consumer count.
	ReportOverhead
)

// Figure is one result of the paper's evaluation (§5): the cells it runs
// and what it reports. TailShare adds the share of RTTs under twice the
// median to an RTT-probe table.
type Figure struct {
	ID, Title     string
	Workloads     []string
	Pattern       string
	Architectures []core.ArchitectureName
	Report        FigureReport
	TailShare     bool
}

// FigureGrid sizes a figure run: the fabric scale, the consumer-count
// x-axis, the Dstream message budget per producer (PaperPoint scales it
// for the other workloads) and the runs merged into each point.
type FigureGrid struct {
	Scale      float64
	Counts     []int
	Msgs, Runs int
}

// feedbackArchs drop Stunnel after its poor work-sharing results (§5.4);
// familyArchs keep one variant of each architecture.
var (
	feedbackArchs = []core.ArchitectureName{core.DTS, core.PRSHAProxy, core.PRSHAProxy4Conns, core.MSS}
	familyArchs   = []core.ArchitectureName{core.DTS, core.PRSHAProxy, core.MSS}
	dstream       = []string{workload.Dstream.Name}
	lstream       = []string{workload.Lstream.Name}
	generic       = []string{workload.Generic.Name}
)

// Figures is the paper's result grid, Figures 4-8 and the overhead vs DTS
// quoted in §5.3, in the paper's order. The paper's x-axis is 1-64
// consumers.
var Figures = []Figure{
	{ID: "4a", Title: "Figure 4a: Dstream throughput, work sharing (msgs/sec)",
		Workloads: dstream, Pattern: pattern.WorkSharingName, Architectures: core.AllArchitectures, Report: ReportThroughput},
	{ID: "4b", Title: "Figure 4b: Lstream throughput, work sharing (msgs/sec)",
		Workloads: lstream, Pattern: pattern.WorkSharingName, Architectures: core.AllArchitectures, Report: ReportThroughput},
	{ID: "5", Title: "Figure 5: RTT CDF probes, work sharing with feedback",
		Workloads: []string{workload.Dstream.Name, workload.Lstream.Name}, Pattern: pattern.FeedbackName, Architectures: feedbackArchs,
		Report: ReportRTTProbes, TailShare: true},
	{ID: "6a", Title: "Figure 6a: Dstream median RTT, work sharing with feedback (ms)",
		Workloads: dstream, Pattern: pattern.FeedbackName, Architectures: feedbackArchs, Report: ReportMedianRTT},
	{ID: "6b", Title: "Figure 6b: Lstream median RTT, work sharing with feedback (ms)",
		Workloads: lstream, Pattern: pattern.FeedbackName, Architectures: feedbackArchs, Report: ReportMedianRTT},
	{ID: "7a", Title: "Figure 7a: generic broadcast throughput (msgs/sec)",
		Workloads: generic, Pattern: pattern.BroadcastName, Architectures: familyArchs, Report: ReportThroughput},
	{ID: "7b", Title: "Figure 7b: generic broadcast+gather median RTT (ms)",
		Workloads: generic, Pattern: pattern.BroadcastGatherName, Architectures: familyArchs, Report: ReportMedianRTT},
	{ID: "8", Title: "Figure 8: broadcast+gather RTT CDF probes",
		Workloads: generic, Pattern: pattern.BroadcastGatherName, Architectures: familyArchs, Report: ReportRTTProbes},
	{ID: "overhead", Title: "Streaming overhead vs DTS (work sharing, Dstream)",
		Workloads: dstream, Pattern: pattern.WorkSharingName, Architectures: familyArchs, Report: ReportOverhead},
}

// Counts picks the consumer counts the figure reports at from the x-axis:
// every one for a row figure, the highest for RTT probes, the middle one
// for the overhead.
func (f Figure) Counts(axis []int) []int {
	switch f.Report {
	case ReportRTTProbes:
		return axis[len(axis)-1:]
	case ReportOverhead:
		return axis[len(axis)/2 : len(axis)/2+1]
	}
	return axis
}

// Cells is the figure's data points on the grid in table order: for each
// workload and architecture, one PaperPoint per reported consumer count,
// with the grid's runs and a 15-minute deadline for the whole run.
func (f Figure) Cells(g FigureGrid) []Spec {
	var cells []Spec
	for _, wl := range f.Workloads {
		for _, arch := range f.Architectures {
			for _, n := range f.Counts(g.Counts) {
				spec := PaperPoint(arch, wl, f.Pattern, n, g.Scale, g.Msgs)
				spec.Runs = g.Runs
				spec.TimeoutMS = (15 * time.Minute).Milliseconds()
				cells = append(cells, spec)
			}
		}
	}
	return cells
}
