package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// finite reports the first metric that is NaN or infinite, if any: a
// metric computed from no samples must fail the run, not read as a number.
func (r *report) finite() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", name)
		}
	}
	return nil
}

// run carries what every mode of a run shares.
type run struct {
	seed    int64
	outDir  string
	log     io.Writer
	trials  int // trials per ladder measurement
	dataSeq int // durable data directories handed out so far
	// budget caps the trial rounds' wall time; zero means no cap. Counts
	// are fixed so that a run is the same work every time, and the cap
	// only bites when the machine is several times slower than sized for:
	// rounds stop early (never below minTrials) instead of overrunning.
	budget time.Duration
	// harnessLoans is the pooled bytes pattern.Run left on loan when it
	// tore down (see patternRun): reported, and kept out of the leak check,
	// which holds the generator to account and not the figure harness.
	harnessLoans int64
}

// minTrials is the fewest rounds a capped run still makes.
const minTrials = 8

// setupWarm is how many fresh set-up cycles each architecture gets before
// the trials; one more follows every round of trials, so the cycles are
// spread over the whole run and a noisy spell cannot spoil all of them.
const setupWarm = 3

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format, args...) }

// dataDir hands out a fresh directory for durable queue data.
func (r *run) dataDir() string {
	r.dataSeq++
	return filepath.Join(r.outDir, fmt.Sprintf("data-%d", os.Getpid()), fmt.Sprintf("%04d", r.dataSeq))
}

// removeData deletes everything dataDir handed out.
func (r *run) removeData() {
	os.RemoveAll(filepath.Join(r.outDir, fmt.Sprintf("data-%d", os.Getpid())))
}

// target is one deployed architecture with its live session.
type target struct {
	arch arch
	dep  core.Deployment
	s    *session
}

// close tears the session and the deployment down; a second call is a
// no-op, so it can be both deferred and called before the leak check.
func (t *target) close() {
	if t.s != nil {
		t.s.close()
		t.s = nil
	}
	if t.dep != nil {
		t.dep.Close()
		t.dep = nil
	}
}

// targets is every architecture deployed for one workload.
type targets []*target

func (ts targets) close() {
	for _, t := range ts {
		t.close()
	}
}

// deploy starts the architecture for the workload and opens its session.
func (r *run) deploy(a arch, w workload) (*target, error) {
	dep, err := core.Deploy(a.name, w.options(r.dataDir()))
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", a.name, err)
	}
	topo := w.topologyFor(dep)
	prod, cons := legsFor(dep, topo)
	s, err := openSession(a.key, prod, cons, topo)
	if err != nil {
		dep.Close()
		return nil, err
	}
	return &target{arch: a, dep: dep, s: s}, nil
}

// setupCycle times what a user pays before the first message flows, once:
// core.Deploy, two connects, declares / confirm / qos / consume, one
// message confirmed, delivered and acknowledged, and Close.
func (r *run) setupCycle(a arch, w workload, pl *pool, tl *tally) (float64, error) {
	t0 := now()
	t, err := r.deploy(a, w)
	if err != nil {
		return 0, err
	}
	_, err = t.s.run(pl, phase{n: 1, w: 1, warm: true})
	tl.add(t.s, 1)
	t.close()
	if err != nil {
		return 0, fmt.Errorf("setup cycle: %w", err)
	}
	return float64(now()-t0) / 1e9, nil
}

// setupRound runs one fresh cycle per architecture and then collects
// garbage, so that what a cycle allocated (certificates, TLS state, three
// brokers) is not being marked concurrently with the next timed phase.
func (r *run) setupRound(w workload, pl *pool, tl *tally, into map[string][]float64) error {
	for _, a := range archs {
		s, err := r.setupCycle(a, w, pl, tl)
		if err != nil {
			return err
		}
		into[a.key] = append(into[a.key], s)
	}
	runtime.GC()
	return nil
}

// setupCost is the sum over the architectures of the quiet
// (second-fastest) cycle: interference only ever adds time, and one cycle
// of 3-90 ms is far too short to average it out.
func (r *run) setupCost(cycles map[string][]float64) float64 {
	total := 0.0
	for _, a := range archs {
		c := cycles[a.key]
		best := quietOf(c, false)
		r.logf("setup %-3s  min %.2f ms  quiet %.2f ms  median %.2f ms  max %.2f ms  (%d cycles)\n",
			a.key, quantile(c, 0)*1e3, best*1e3, quantile(c, 0.5)*1e3, quantile(c, 1)*1e3, len(c))
		total += best
	}
	return total
}

// tally accumulates attempted and failed operations over a run.
type tally struct {
	attempted int64
	failed    int64
	causes    []string
}

// add books n attempted messages on s and moves s's failures in.
func (t *tally) add(s *session, n int) {
	t.attempted += int64(n)
	if f := s.faults.total(); f > 0 {
		t.failed += f
		t.causes = append(t.causes, s.name+": "+s.faults.String())
		s.faults = faults{}
	}
}

// series is one architecture's per-trial values.
type series struct {
	rate, cpu, p50 []float64
}

// endToEnd runs the workload untraced and fills in the end-to-end metrics.
func (r *run) endToEnd(w workload, rep *report) error {
	var tl tally
	pl := newPool(r.seed, w.bodySize, w.poolCount)
	defer r.removeData()

	cycles := map[string][]float64{}
	for i := 0; i < setupWarm; i++ {
		if err := r.setupRound(w, pl, &tl, cycles); err != nil {
			return err
		}
	}

	targets, err := r.deployAll(w)
	if err != nil {
		return err
	}
	defer targets.close()
	if err := r.warm(targets, w, pl, &tl); err != nil {
		return err
	}

	trials := map[string]*series{}
	for _, a := range archs {
		trials[a.key] = &series{}
	}
	var allocs, allocMsgs uint64
	r.logf("%-5s %-3s %12s %12s %12s\n", "trial", "arch", "msgs_per_s", "cpu_us/msg", "lat_p50_ms")
	start := now()
	for k := 0; k < w.trials; k++ {
		if over := time.Duration(now() - start); r.budget > 0 && k >= minTrials && over > r.budget {
			r.logf("stopping after %d of %d rounds: %v is over the %v budget\n", k, w.trials, over, r.budget)
			break
		}
		for _, t := range targets {
			m0 := mallocs()
			sat, err := t.s.run(pl, phase{n: w.nSat, w: w.wSat})
			allocs += mallocs() - m0
			allocMsgs += uint64(w.nSat)
			tl.add(t.s, w.nSat)
			if err != nil {
				return err
			}
			lat, err := t.s.run(pl, phase{n: w.nLat, w: w.wLat})
			tl.add(t.s, w.nLat)
			if err != nil {
				return err
			}
			rate, cpu, p50 := sat.msgsPerSec(), sat.cpuUsPerMsg(), quantileNs(lat.lats, 0.5)/1e6
			sr := trials[t.arch.key]
			sr.rate, sr.cpu, sr.p50 = append(sr.rate, rate), append(sr.cpu, cpu), append(sr.p50, p50)
			r.logf("%-5d %-3s %12.1f %12.3f %12.4f\n", k, t.arch.key, rate, cpu, p50)
		}
		if err := r.setupRound(w, pl, &tl, cycles); err != nil {
			return err
		}
	}
	targets.close()

	// The second-best trial assumes noise is one-sided: interference only
	// ever slows a saturated CPU. On a link-bound workload the CPU is
	// mostly idle, rate and latency are made of sleeps, and what varies is
	// two-sided — pacing patterns, and the emulated link's idle-gap latency
	// is bistable (a round trip that once fits inside the latency window
	// stops paying it) — so there the median over the trials is reported.
	reduce, how := quietOf, "second-best"
	if w.shaped {
		reduce, how = func(v []float64, _ bool) float64 { return quantile(v, 0.5) }, "median"
	}
	for _, a := range archs {
		sr := trials[a.key]
		rep.set(a.key+".msgs_per_s", reduce(sr.rate, true), "1/s")
		rep.set(a.key+".lat_p50_ms", reduce(sr.p50, false), "ms")
		rep.set(a.key+".cpu_us_per_msg", reduce(sr.cpu, false), "us")
		r.logf("%s: %s of %d trials; lat_p50 from %d samples per trial at window %d\n",
			a.key, how, len(sr.rate), w.nLat, w.wLat)
	}
	rep.set("allocs_per_msg", float64(allocs)/float64(allocMsgs), "count")
	rep.set("setup_s", r.setupCost(cycles), "s")
	rep.set("peak_rss_mib", peakRSSMiB(), "MiB")
	return r.finish(rep, &tl)
}

// deployAll starts every architecture for the workload.
func (r *run) deployAll(w workload) (targets, error) {
	var ts targets
	for _, a := range archs {
		t, err := r.deploy(a, w)
		if err != nil {
			ts.close()
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// warm runs one discarded pass per architecture with the full CRC on
// every message: caches fill, lazy set-up finishes and the buffer pools
// reach their steady size before anything is timed.
func (r *run) warm(targets targets, w workload, pl *pool, tl *tally) error {
	n := w.nSat / 4
	if n < 2*w.wSat {
		n = 2 * w.wSat
	}
	for _, t := range targets {
		_, err := t.s.run(pl, phase{n: n, w: w.wSat, warm: true})
		tl.add(t.s, n)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// finish settles the run's correctness: no failed operation, every
// pooled buffer back after teardown, every metric a finite number.
func (r *run) finish(rep *report, tl *tally) error {
	rep.Attempted, rep.Failed = tl.attempted, tl.failed
	for _, c := range tl.causes {
		r.logf("FAILED OPS %s\n", c)
	}
	loaned := loansAbove(r.harnessLoans, 5*time.Second)
	if loaned > 0 {
		r.logf("LEAK %d pooled bytes (wire.LoanedBytes) still on loan after teardown\n", loaned)
	}
	if err := rep.finite(); err != nil {
		return err
	}
	rep.Correct = tl.failed == 0 && loaned <= 0
	r.logf("ops attempted %d, failed %d\n", tl.attempted, tl.failed)
	return nil
}

// loansAbove returns the pooled bytes on loan beyond floor. Teardown is
// asynchronous on the broker side (serve loops drain and release after
// the sockets close), so it waits for the figure to come down to floor,
// for at most wait.
func loansAbove(floor int64, wait time.Duration) int64 {
	deadline := time.Now().Add(wait)
	for wire.LoanedBytes() > floor && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return wire.LoanedBytes() - floor
}

// traceTrials is how many rounds the traced run makes: each has an
// untraced and a traced sat phase per architecture, so tracing overhead
// is the ratio of two numbers taken seconds apart.
const traceTrials = 3

// perLayer is the --trace 1 run: the ladder, then the workload run again
// with spans recorded around every call into the stack for one message
// in traceEvery. Nothing here feeds an end-to-end metric.
func (r *run) perLayer(w workload, rep *report, f float64) error {
	var tl tally
	defer r.removeData()
	if err := r.ladderInto(rep, &tl, f); err != nil {
		return err
	}
	if err := r.traced(w, rep, &tl); err != nil {
		return err
	}
	return r.finish(rep, &tl)
}

// traced runs the workload with the tracer on and reports where a
// message spends its time, per architecture.
func (r *run) traced(w workload, rep *report, tl *tally) error {
	defer r.removeData()
	pl := newPool(r.seed, w.bodySize, w.poolCount)
	targets, err := r.deployAll(w)
	if err != nil {
		return err
	}
	defer targets.close()
	if err := r.warm(targets, w, pl, tl); err != nil {
		return err
	}
	relayBytes := metrics.Default.Counter("transport.relay_bytes")
	type acc struct {
		plain, traced, idle, relay []float64
		lats                       []int64 // lat-phase samples pooled over the trials
		spans                      map[string][]float64
		last                       []span
	}
	accs := map[string]*acc{}
	for _, a := range archs {
		accs[a.key] = &acc{spans: map[string][]float64{}}
	}
	var tr tracer
	for k := 0; k < traceTrials; k++ {
		for _, t := range targets {
			a := accs[t.arch.key]
			plain, err := t.s.run(pl, phase{n: w.nSat, w: w.wSat})
			tl.add(t.s, w.nSat)
			if err != nil {
				return err
			}
			b0 := relayBytes.Load()
			traced, err := t.s.run(pl, phase{n: w.nSat, w: w.wSat, tr: &tr})
			tl.add(t.s, w.nSat)
			if err != nil {
				return err
			}
			a.relay = append(a.relay, float64(relayBytes.Load()-b0)/float64(w.nSat))
			a.plain = append(a.plain, plain.msgsPerSec())
			a.traced = append(a.traced, traced.msgsPerSec())
			a.idle = append(a.idle, float64(tr.idle)/float64(tr.elapsed))
			a.last = tr.spans()
			for name, us := range spanMedians(a.last) {
				a.spans[name] = append(a.spans[name], us)
			}
			lat, err := t.s.run(pl, phase{n: w.nLat, w: w.wLat})
			tl.add(t.s, w.nLat)
			if err != nil {
				return err
			}
			a.lats = append(a.lats, lat.lats...)
		}
	}
	targets.close()

	tf := traceFile{Workload: w.name, Seed: r.seed, Every: traceEvery, Spans: map[string][]span{}}
	var plainSum, tracedSum float64
	for _, ar := range archs {
		a := accs[ar.key]
		pre := "trace." + ar.key + "."
		for _, name := range []string{spanCreditWait, spanPublish, spanConfirm, spanTransit, spanConsume, spanAck, spanUnattributed} {
			rep.set(pre+name+"_us", quantile(a.spans[name], 0.5), "us")
		}
		rep.set(pre+"consumer_idle_frac", quantile(a.idle, 0.5), "frac")
		rep.set(pre+"relay_bytes_per_msg", quantile(a.relay, 0.5), "B")
		rep.set("e2e."+ar.key+".lat_p90_ms", quantileNs(a.lats, 0.90)/1e6, "ms")
		rep.set("e2e."+ar.key+".lat_p99_ms", quantileNs(a.lats, 0.99)/1e6, "ms")
		plainSum += quietOf(a.plain, true)
		tracedSum += quietOf(a.traced, true)
		tf.Spans[ar.key] = a.last
		r.logf("trace %s: %d spans kept from the last traced trial; tails from %d samples (%d beyond p99)\n",
			ar.key, len(a.last), len(a.lats), len(a.lats)/100)
	}
	rep.set("trace.overhead_frac", 1-tracedSum/plainSum, "frac")
	path, err := writeTrace(r.outDir, tf)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.logf("trace written to %s\n", path)
	return nil
}
