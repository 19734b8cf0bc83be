package telemetry

import (
	"sync"
	"time"
)

// DefaultTickInterval is the aggregator's default sampling period —
// the "per-second" of per-second throughput rollups.
const DefaultTickInterval = time.Second

// seriesCap bounds each ring-buffered time series (10 minutes at the
// default one-second tick).
const seriesCap = 600

// Point is one time-series sample: a per-second rate for counter
// sources, a level for gauge sources.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Tick is one aggregator rollup, delivered to the OnTick callback:
// every observed source's value at that instant (rates for counters,
// levels for gauges).
type Tick struct {
	T      time.Time
	Values map[string]float64
}

const (
	kindCounter = iota
	kindGauge
)

// source is one observed probe: a read callback plus rate state.
type source struct {
	name  string
	kind  int
	read  func() int64
	last  int64
	lastT time.Time
	ring  []Point // ring buffer, oldest at head when full
	head  int
}

func (s *source) append(p Point) {
	if len(s.ring) < seriesCap {
		s.ring = append(s.ring, p)
		return
	}
	s.ring[s.head] = p
	s.head = (s.head + 1) % seriesCap
}

func (s *source) points() []Point {
	out := make([]Point, 0, len(s.ring))
	out = append(out, s.ring[s.head:]...)
	out = append(out, s.ring[:s.head]...)
	return out
}

// Aggregator snapshots observed sources on a tick into ring-buffered
// time series. Counters become per-interval rates (normalized to per
// second), gauges become levels. Start launches the ticker; Stop halts
// it and performs one final partial tick, so runs shorter than the
// interval still yield a data point. Tick may also be driven manually
// (tests, single-threaded drivers).
type Aggregator struct {
	interval time.Duration

	mu      sync.Mutex
	sources []*source
	onTick  func(Tick)

	stop chan struct{}
	done chan struct{}
}

// NewAggregator creates an idle aggregator; interval <= 0 uses
// DefaultTickInterval.
func NewAggregator(interval time.Duration) *Aggregator {
	if interval <= 0 {
		interval = DefaultTickInterval
	}
	return &Aggregator{interval: interval}
}

// OnTick installs a callback invoked after every tick with the rollup.
// The callback runs on the ticker goroutine; keep it brief.
func (a *Aggregator) OnTick(fn func(Tick)) {
	a.mu.Lock()
	a.onTick = fn
	a.mu.Unlock()
}

// ObserveCounter adds a cumulative source; its series holds per-second
// rates of change. The current value is read immediately as the rate
// baseline.
func (a *Aggregator) ObserveCounter(name string, read func() int64) {
	a.observe(name, kindCounter, read)
}

// ObserveGauge adds a level source; its series holds raw values.
func (a *Aggregator) ObserveGauge(name string, read func() int64) {
	a.observe(name, kindGauge, read)
}

// timeNow is stubbed by tests that drive Tick with synthetic times.
var timeNow = time.Now

func (a *Aggregator) observe(name string, kind int, read func() int64) {
	s := &source{name: name, kind: kind, read: read, last: read(), lastT: timeNow()}
	a.mu.Lock()
	// Replace an existing source of the same name (a re-registered run).
	for i, old := range a.sources {
		if old.name == name {
			a.sources[i] = s
			a.mu.Unlock()
			return
		}
	}
	a.sources = append(a.sources, s)
	a.mu.Unlock()
}

// Tick samples every source once at the given instant.
func (a *Aggregator) Tick(now time.Time) {
	a.mu.Lock()
	tick := Tick{T: now, Values: make(map[string]float64, len(a.sources))}
	for _, s := range a.sources {
		cur := s.read()
		var v float64
		switch s.kind {
		case kindCounter:
			dt := now.Sub(s.lastT).Seconds()
			if dt <= 0 {
				continue // zero-length interval: no rate to report
			}
			v = float64(cur-s.last) / dt
		case kindGauge:
			v = float64(cur)
		}
		s.last, s.lastT = cur, now
		s.append(Point{T: now, V: v})
		tick.Values[s.name] = v
	}
	fn := a.onTick
	a.mu.Unlock()
	if fn != nil {
		fn(tick)
	}
}

// Unobserve removes a source: its series is dropped and its read
// callback is never invoked again. Teardown paths call this after the
// probes a source reads are unregistered (a deleted queue, a closed
// deployment), so a still-ticking aggregator cannot read through a
// dead closure. Unknown names are a no-op.
func (a *Aggregator) Unobserve(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, s := range a.sources {
		if s.name == name {
			a.sources = append(a.sources[:i], a.sources[i+1:]...)
			return
		}
	}
}

// Series returns the recorded points for a source name (nil if the
// source is unknown or has no points yet).
func (a *Aggregator) Series(name string) []Point {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.sources {
		if s.name == name {
			return s.points()
		}
	}
	return nil
}

// Start launches the tick loop. Calling Start on a running aggregator
// is a no-op.
func (a *Aggregator) Start() {
	a.mu.Lock()
	if a.stop != nil {
		a.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	a.stop, a.done = stop, done
	a.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(a.interval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				a.Tick(now)
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the tick loop and performs one final partial tick so the
// tail of the run (or all of a sub-interval run) is not lost. Calling
// Stop on a never-started or already-stopped aggregator is a no-op.
func (a *Aggregator) Stop() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	a.Tick(time.Now())
}
