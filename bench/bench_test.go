package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"testing"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float64
		q    float64
		want float64
	}{
		{"single", []float64{7}, 0.5, 7},
		{"median of odd", []float64{3, 1, 2}, 0.5, 2},
		{"median of even interpolates", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"minimum", []float64{5, 9, 1}, 0, 1},
		{"maximum", []float64{5, 9, 1}, 1, 9},
		{"first quartile", []float64{10, 20, 30, 40, 50}, 0.25, 20},
		{"interpolated", []float64{0, 10}, 0.9, 9},
		{"clamped below", []float64{4, 8}, -1, 4},
		{"clamped above", []float64{4, 8}, 2, 8},
	} {
		if got := quantile(tc.vals, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", tc.name, tc.vals, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, so the metric fails the run")
	}
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quantile reordered its input: %v", in)
	}
	if got := quantileNs([]int64{1000, 3000, 2000}, 0.5); got != 2000 {
		t.Errorf("quantileNs = %v, want 2000", got)
	}
}

func TestQuietOf(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vals   []float64
		higher bool
		want   float64
	}{
		// Two of eight trials disturbed, one lucky: the runner-up sits
		// among the undisturbed ones and ignores the single extreme.
		{"cost skips the lucky minimum", []float64{20, 21, 22, 20.5, 35, 40, 21.5, 12}, false, 20},
		{"rate skips the lucky maximum", []float64{100, 98, 60, 97, 99, 55, 101, 140}, true, 101},
		{"most trials disturbed", []float64{30, 31, 29, 33, 20.1, 32, 20.3, 34}, false, 20.3},
		{"ties", []float64{5, 5, 7}, false, 5},
		{"two trials, cost", []float64{3, 9}, false, 9},
		{"two trials, rate", []float64{3, 9}, true, 3},
		{"one trial", []float64{5}, false, 5},
	} {
		if got := quietOf(tc.vals, tc.higher); got != tc.want {
			t.Errorf("%s: quietOf(%v, %v) = %v, want %v", tc.name, tc.vals, tc.higher, got, tc.want)
		}
	}
	if !math.IsNaN(quietOf(nil, true)) {
		t.Error("quietOf of no trials must be NaN")
	}
	in := []float64{3, 1, 2}
	quietOf(in, false)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quietOf reordered its input: %v", in)
	}
}

func TestSpreadIQR(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spreadIQR(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spreadIQR = %v, want %v", got, want)
	}
	if got := spreadIQR([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spreadIQR of equal values = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("rate falling 100 -> 90 is 10%% worse, got %v", got)
	}
	if got := worseBy(2, 2.5, "lower"); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("latency rising 2 -> 2.5 is 25%% worse, got %v", got)
	}
	if got := worseBy(2, 1, "lower"); got >= 0 {
		t.Errorf("latency falling must not count as worse, got %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 130}}, 80},
		{"disjoint children", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested child adds nothing", []span{{Start: 110, End: 170}, {Start: 120, End: 130}}, 40},
		{"child sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"child outside is ignored", []span{{Start: 10, End: 90}, {Start: 200, End: 300}}, 100},
		{"full cover", []span{{Start: 100, End: 200}}, 0},
		{"empty child", []span{{Start: 150, End: 150}}, 100},
		{"unsorted input", []span{{Start: 160, End: 180}, {Start: 100, End: 120}}, 60},
	} {
		if got := selfTime(root, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	var tr tracer
	tr.begin(1000, 2*traceEvery)
	// Message 0 is sampled, message 1 is not, message traceEvery is.
	tr.published(0, 1000, 5, 100, 110)
	tr.published(1, 1001, 0, 111, 115)
	tr.published(traceEvery, 1000+traceEvery, 0, 300, 310)
	tr.confirmed(0, 150)
	tr.confirmed(traceEvery, 340)
	tr.received(0, 90, 130, 140)
	tr.received(traceEvery, 140, 305, 320) // seen before Publish returned
	tr.acked(traceEvery, 400, 420)
	spans := tr.spans()
	if len(spans) != 2*7 {
		t.Fatalf("got %d spans, want 14 (root + 6 children for each of 2 sampled messages)", len(spans))
	}
	if tr.idle != (130-90)+(305-140) {
		t.Errorf("idle = %d", tr.idle)
	}
	root := spans[0]
	if root.Name != spanMessage || root.Parent != 1000 || root.Start != 95 || root.End != 420 {
		t.Errorf("root span = %+v", root)
	}
	// Covered: credit 95-100, publish 100-110, confirm/transit 110-150,
	// ack 400-420 (consume 130-140 lies inside confirm): 75 of 325.
	if root.SelfNs != 250 {
		t.Errorf("root self time = %d, want 250", root.SelfNs)
	}
	for _, s := range spans[7:] {
		if s.Name == spanTransit && s.dur() != 0 {
			t.Errorf("transit of a message received before Publish returned = %d, want 0", s.dur())
		}
		if s.dur() < 0 {
			t.Errorf("negative span %+v", s)
		}
	}
	if med := spanMedians(spans); med[spanPublish] != 0.01 {
		t.Errorf("median publish_call = %v us, want 0.01", med[spanPublish])
	}
}

func TestPoolCheck(t *testing.T) {
	a, b := newPool(7, 256, 8), newPool(7, 256, 8)
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			t.Fatal("the same seed must give the same bodies")
		}
	}
	if bytes.Equal(a.bodies[0], newPool(8, 256, 8).bodies[0]) {
		t.Error("another seed must give other bodies")
	}
	body := append([]byte(nil), a.stamp(16)...)
	if seq, f := a.check(body, false); seq != 16 || f != bodyOK {
		t.Errorf("check = %d, %v", seq, f)
	}
	if _, f := a.check(body[:100], false); f != bodyBadLen {
		t.Errorf("short body: %v, want bodyBadLen", f)
	}
	body[200] ^= 1
	if _, f := a.check(body, false); f != bodyBadCRC {
		t.Errorf("flipped byte at a sampled sequence number: %v, want bodyBadCRC", f)
	}
	odd := append([]byte(nil), a.stamp(17)...)
	odd[200] ^= 1
	if _, f := a.check(odd, false); f != bodyOK {
		t.Errorf("an unsampled message skips the CRC: %v", f)
	}
	if _, f := a.check(odd, true); f != bodyBadCRC {
		t.Errorf("a warm-up message always gets the CRC: %v", f)
	}
	odd[200] ^= 1
	odd[11] ^= 1
	if _, f := a.check(odd, false); f != bodyBadID {
		t.Errorf("wrong payload id: %v, want bodyBadID", f)
	}
	var rep [replySize]byte
	putReply(rep[:], 99, 3)
	if seq, part, ok := parseReply(rep[:]); !ok || seq != 99 || part != 3 {
		t.Errorf("parseReply = %d, %d, %v", seq, part, ok)
	}
	rep[3] ^= 1
	if _, _, ok := parseReply(rep[:]); ok {
		t.Error("a corrupted reply must not parse")
	}
}

// benchmarkNames loads BENCHMARK.json from the repository root.
func benchmarkNames(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// assertMetrics checks that rep holds exactly the named metrics, each
// with its unit and a finite value.
func assertMetrics(t *testing.T, what string, rep *report, want []benchMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json was not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.Name, got.Value)
		}
	}
	if len(rep.Metrics) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range rep.Metrics {
			if !names[name] {
				t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", what, name)
			}
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and holds the output to BENCHMARK.json: the same names, the same
// units, no failed operation, no leaked buffer.
func TestSmoke(t *testing.T) {
	bf := benchmarkNames(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	newRun := func() *run { return &run{seed: 1, outDir: t.TempDir(), log: io.Discard, trials: 1} }

	ladder := &report{Metrics: map[string]metric{}}
	if err := newRun().ladder(ladder, 0.01); err != nil {
		t.Fatalf("ladder: %v", err)
	}
	if !ladder.Correct {
		t.Errorf("ladder: not correct (attempted %d, failed %d)", ladder.Attempted, ladder.Failed)
	}

	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, bf.Workloads[i].Name, w.name)
		}
		w = w.scaled(0.01, 2)
		if w.poolCount > 16 {
			w.poolCount = 16 // generating 64 MiB of payload is most of a tiny run
		}
		e2e := &report{Metrics: map[string]metric{}}
		if err := newRun().endToEnd(w, e2e); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, e2e.Correct, e2e.Attempted, e2e.Failed)
		}
		assertMetrics(t, w.name, e2e, bf.EndToEnd)

		// The traced run adds the workload's spans to the ladder's rows;
		// together they are the per-layer set.
		layers := &report{Metrics: map[string]metric{}}
		for name, m := range ladder.Metrics {
			layers.Metrics[name] = m
		}
		var tl tally
		r := newRun()
		if err := r.traced(w, layers, &tl); err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if err := r.finish(layers, &tl); err != nil || !layers.Correct {
			t.Errorf("%s traced: err=%v correct=%v failed=%d", w.name, err, layers.Correct, layers.Failed)
		}
		assertMetrics(t, w.name+" traced", layers, bf.PerLayer)
	}

	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// tamperConn flips one byte after every occurrence of needle it writes.
type tamperConn struct {
	net.Conn
	needle  []byte
	flipped int
}

func (c *tamperConn) Write(p []byte) (int, error) {
	if i := bytes.Index(p, c.needle); i >= 0 && i+len(c.needle) < len(p) {
		q := append([]byte(nil), p...)
		q[i+len(c.needle)] ^= 0x01
		c.flipped++
		_, err := c.Conn.Write(q)
		return len(p), err
	}
	return c.Conn.Write(p)
}

// TestTamperedBodyIsAFailedOp puts a hop that corrupts one body byte on
// the producer's leg and expects the run to count failed operations
// rather than report numbers for a stack that damaged its payload.
func TestTamperedBodyIsAFailedOp(t *testing.T) {
	srv, err := broker.Listen(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pl := newPool(3, 1<<10, 8)
	// Pool body 0 carries sequence numbers 0, 8, 16, ...: every other one
	// is CRC-sampled even on a timed pass.
	tc := &tamperConn{needle: pl.bodies[0][bodyHeader : bodyHeader+16]}
	prod := leg{url: "amqp://" + srv.Addr(), cfg: amqp.Config{Dial: func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		tc.Conn = c
		return tc, err
	}}}
	s, err := openSession("tamper", prod, plainLeg(srv.Addr()), topology{kind: workSharing, queues: []string{"bench.work"}, maxW: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if _, err := s.run(pl, phase{n: 64, w: 8}); err != nil {
		t.Fatalf("a corrupted body must be counted, not abort the phase: %v", err)
	}
	if tc.flipped == 0 {
		t.Fatal("the tampering hop never saw its needle")
	}
	if got := s.faults.badCRC.Load(); got != 4 {
		t.Errorf("bad_crc = %d, want 4 (sequence numbers 0, 16, 32, 48 of 64 are sampled and tampered)", got)
	}
	var tl tally
	tl.add(s, 64)
	rep := &report{Metrics: map[string]metric{}}
	r := &run{log: io.Discard}
	if err := r.finish(rep, &tl); err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 4 {
		t.Errorf("correct=%v failed=%d, want a run marked incorrect with 4 failed ops", rep.Correct, rep.Failed)
	}
}
