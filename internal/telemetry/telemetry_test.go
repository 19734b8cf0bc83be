package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestCounterShards(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := c.Shard(i)
			for j := 0; j < 1000; j++ {
				sh.Inc()
			}
		}(i)
	}
	wg.Wait()
	c.Add(5)
	if got := c.Load(); got != 32005 {
		t.Fatalf("counter = %d", got)
	}
}

func TestGaugeAndWatermark(t *testing.T) {
	g := &Gauge{}
	g.Set(10)
	g.Add(-3)
	if g.Load() != 7 {
		t.Fatalf("gauge = %d", g.Load())
	}
	w := &Watermark{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				w.Record(int64(i*100 + j))
			}
		}(i)
	}
	wg.Wait()
	if w.Load() != 799 {
		t.Fatalf("watermark = %d", w.Load())
	}
	w.Record(5) // lower values never regress the mark
	if w.Load() != 799 {
		t.Fatalf("watermark regressed to %d", w.Load())
	}
}

func TestRegistryStablePointersAndTags(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a.b") != r.Counter("a.b") {
		t.Fatal("counter pointer not stable")
	}
	if r.Counter("a.b", "q=1") == r.Counter("a.b", "q=2") {
		t.Fatal("tagged counters must be distinct")
	}
	if r.Gauge("g") != r.Gauge("g") || r.Histogram("h") != r.Histogram("h") || r.Watermark("w") != r.Watermark("w") {
		t.Fatal("probe pointers not stable")
	}
	r.Counter("a.b", "q=1").Add(3)
	r.GaugeFunc("depth", func() int64 { return 42 }, "q=x")
	r.GaugeFunc("depth", func() int64 { return 7 }, "q=x") // replace
	r.CounterFuncCtx("total", ContextNone, func() int64 { return 9 })
	s := r.Snapshot()
	if s.Counters[`a.b{q=1}`] != 3 {
		t.Fatalf("snapshot counters: %+v", s.Counters)
	}
	if s.Gauges[`depth{q=x}`] != 7 {
		t.Fatalf("gauge func not replaced: %+v", s.Gauges)
	}
	if s.Counters["total"] != 9 {
		t.Fatalf("counter func missing: %+v", s.Counters)
	}
	r.Unregister("depth", "q=x")
	r.Unregister("total")
	r.Unregister("never-registered")
	s = r.Snapshot()
	if _, ok := s.Gauges[`depth{q=x}`]; ok {
		t.Fatal("gauge func not unregistered")
	}
	if _, ok := s.Counters["total"]; ok {
		t.Fatal("counter func not unregistered")
	}
}

func TestAggregatorRatesAndSeries(t *testing.T) {
	base := time.Unix(1000, 0)
	timeNow = func() time.Time { return base }
	defer func() { timeNow = time.Now }()
	a := NewAggregator(time.Second)
	var c Counter
	var g Gauge
	a.ObserveCounter("consumed", c.Load)
	a.ObserveGauge("depth", g.Load)

	c.Add(10)
	g.Set(4)
	a.Tick(base.Add(time.Second)) // 10 events over 1s
	c.Add(30)
	g.Set(2)
	a.Tick(base.Add(3 * time.Second)) // 30 events over 2s

	rates := a.Series("consumed")
	if len(rates) != 2 || rates[0].V != 10 || rates[1].V != 15 {
		t.Fatalf("rates = %+v", rates)
	}
	depth := a.Series("depth")
	if len(depth) != 2 || depth[0].V != 4 || depth[1].V != 2 {
		t.Fatalf("depth = %+v", depth)
	}
	if a.Series("unknown") != nil {
		t.Fatal("unknown series must be nil")
	}
}

func TestAggregatorOnTickAndStopFlush(t *testing.T) {
	a := NewAggregator(time.Hour) // ticker never fires on its own
	var c Counter
	a.ObserveCounter("consumed", c.Load)
	var mu sync.Mutex
	var ticks []Tick
	a.OnTick(func(tk Tick) {
		mu.Lock()
		ticks = append(ticks, tk)
		mu.Unlock()
	})
	a.Start()
	a.Start() // second Start is a no-op
	c.Add(7)
	time.Sleep(10 * time.Millisecond)
	a.Stop() // final flush emits the sub-interval point
	a.Stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(ticks) == 0 {
		t.Fatal("Stop did not flush a final tick")
	}
	last := ticks[len(ticks)-1]
	if last.Values["consumed"] <= 0 {
		t.Fatalf("final rollup = %+v", last.Values)
	}
}

func TestAggregatorReplacesSource(t *testing.T) {
	a := NewAggregator(time.Second)
	a.ObserveCounter("c", func() int64 { return 100 })
	// A fresh run re-registers under the same name; the new baseline
	// must not produce a negative rate.
	a.ObserveCounter("c", func() int64 { return 0 })
	a.Tick(time.Now().Add(time.Second))
	pts := a.Series("c")
	if len(pts) != 1 || pts[0].V < 0 {
		t.Fatalf("replaced source series = %+v", pts)
	}
}

func TestSeriesRingWraps(t *testing.T) {
	s := &source{}
	for i := 0; i < seriesCap+10; i++ {
		s.append(Point{V: float64(i)})
	}
	pts := s.points()
	if len(pts) != seriesCap {
		t.Fatalf("ring length = %d", len(pts))
	}
	if pts[0].V != 10 || pts[len(pts)-1].V != float64(seriesCap+9) {
		t.Fatalf("ring order wrong: first=%v last=%v", pts[0].V, pts[len(pts)-1].V)
	}
}

// TestConcurrentProbesUnderRace exercises every probe type from many
// goroutines at once; `go test -race` (a CI job) is the real assertion.
func TestConcurrentProbesUnderRace(t *testing.T) {
	r := NewRegistry()
	a := NewAggregator(time.Millisecond)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	w := r.Watermark("w")
	a.ObserveCounter("c", c.Load)
	a.ObserveGauge("g", g.Load)
	a.Start()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := c.Shard(i)
			for j := 0; j < 500; j++ {
				sh.Inc()
				g.Add(1)
				h.Record(int64(j))
				w.Record(int64(j))
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	a.Stop()
	if c.Load() != 4000 || g.Load() != 4000 {
		t.Fatalf("lost updates: c=%d g=%d", c.Load(), g.Load())
	}
	if h.Count() != 4000 {
		t.Fatalf("lost samples: %d", h.Count())
	}
}
