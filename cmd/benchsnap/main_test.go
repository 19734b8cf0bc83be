package main

import (
	"encoding/json"
	"strings"
	"testing"

	"ds2hpc/internal/telemetry"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: ds2hpc
BenchmarkAblationAckBatching/ackbatch=1-8         	       1	  56789012 ns/op	      4567 B/op	      89 allocs/op	     123.4 msgs_per_sec
BenchmarkAblationAckBatching/ackbatch=4-8         	       2	  34567890 ns/op	      2345 B/op	      45 allocs/op	     234.5 msgs_per_sec	       0.9876 bufpool_hit_rate
BenchmarkResilienceFaultRate/DTS/flaps=1-8        	       1	 123456789 ns/op	     345.6 msgs_per_sec	       4.000 reconnects/op
TELEMETRY_SNAPSHOT: {"counters":{"broker.published":128},"watermarks":{"broker.queue_depth_peak":42},"histograms":{"rtt_ns":{"buckets":[{"upper":1007,"count":3}],"count":3,"sum":3000}}}
PASS
ok  	ds2hpc	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleBenchOutput), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[1]
	if b.Name != "BenchmarkAblationAckBatching/ackbatch=4" || b.Iters != 2 {
		t.Fatalf("benchmark %+v, want the -8 GOMAXPROCS suffix dropped", b)
	}
	// At GOMAXPROCS 1 go test appends nothing, so nothing is dropped: a
	// sub-benchmark may really be called "flaps=1-8".
	if one, _ := parse(strings.NewReader(sampleBenchOutput), 1); one.Benchmarks[2].Name != "BenchmarkResilienceFaultRate/DTS/flaps=1-8" {
		t.Fatalf("at GOMAXPROCS 1 the name became %q", one.Benchmarks[2].Name)
	}
	for unit, want := range map[string]float64{
		"ns/op":            34567890,
		"B/op":             2345,
		"allocs/op":        45,
		"msgs_per_sec":     234.5,
		"bufpool_hit_rate": 0.9876,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Fatalf("%s = %v, want %v", unit, got, want)
		}
	}
	r := snap.Benchmarks[2]
	if r.Metrics["reconnects/op"] != 4 {
		t.Fatalf("reconnects/op = %v", r.Metrics["reconnects/op"])
	}
}

// TestParseEmbedsTelemetrySnapshot checks the harness's final telemetry
// line lands in the JSON artifact and decodes back into a full
// telemetry.Snapshot (histogram buckets and peak queue depth included).
func TestParseEmbedsTelemetrySnapshot(t *testing.T) {
	snap, err := parse(strings.NewReader(sampleBenchOutput), 8)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Telemetry == nil {
		t.Fatal("telemetry snapshot line not embedded")
	}
	var tel telemetry.Snapshot
	if err := json.Unmarshal(snap.Telemetry, &tel); err != nil {
		t.Fatal(err)
	}
	if tel.Watermarks["broker.queue_depth_peak"] != 42 {
		t.Fatalf("peak depth = %+v", tel.Watermarks)
	}
	h := tel.Histograms["rtt_ns"]
	if h == nil || h.Count != 3 || len(h.Buckets) != 1 {
		t.Fatalf("rtt histogram = %+v", h)
	}
}

func TestParseIgnoresMalformedTelemetry(t *testing.T) {
	snap, err := parse(strings.NewReader("TELEMETRY_SNAPSHOT: {not json\n"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Telemetry != nil {
		t.Fatal("malformed telemetry line must be dropped")
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	snap, err := parse(strings.NewReader("PASS\nok ds2hpc 1.2s\nBenchmarkBroken x y\n"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from noise", len(snap.Benchmarks))
	}
}
