package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A study reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// worseBy is how much b is worse than a as a share of a: positive means
// worse in the metric's own direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaStudy runs the same code twice — two sets of n runs of every
// workload, one process per run, a new seed each run — and holds the
// benchmark to its own bounds the way the driver does: within a set,
// each metric's interquartile spread must stay inside its bound (setup_s
// excepted), and the second set's median may not be worse than the
// first's by more than the bound. It returns the process exit code.
func aaStudy(n int, seconds float64, outDir string) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa runs from the repository root:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	seed := 1
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range bf.Workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < n; i++ {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
				seed++
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: run of %s failed: %v\n%s", w.Name, err, out)
					return 2
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
					fmt.Fprintf(os.Stderr, "bench: result line of %s: %v\n", w.Name, err)
					return 2
				}
				for name, m := range rep.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d/%d done\n", set+1, w.Name, i+1, n)
			}
		}
	}
	fmt.Printf("A/A study: 2 sets x %d runs per workload, %g s per run\n", n, seconds)
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("| %s | %s | missing | | | | | | FAIL |\n", w.Name, m.Name)
				bad++
				continue
			}
			ma, mb := quantile(a, 0.5), quantile(b, 0.5)
			dev, sa, sb := worseBy(ma, mb, m.Better), spreadIQR(a), spreadIQR(b)
			verdict := "ok"
			if dev > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, ma, mb, 100*dev, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d cell(s) outside their bound\n", bad)
		return 1
	}
	fmt.Println("every cell inside its bound")
	return 0
}
