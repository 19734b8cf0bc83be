package metrics

import (
	"sync"
	"sync/atomic"

	"ds2hpc/internal/telemetry"
)

// Counter is a monotonically increasing, concurrency-safe event counter.
// Counters are cheap enough for per-message hot paths (one atomic add).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Registry is a process-wide set of named counters. Subsystems register
// counters at init time (e.g. "wire.bufpool_hits", "broker.ack_batches");
// benchmarks and operators snapshot the registry around a run to report
// per-run deltas.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}}
}

// Default is the process-wide registry the broker and wire codec report to.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it on first
// use. The returned pointer is stable; hot paths should capture it once
// rather than look it up per event.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		// Mirror process-wide hot-path counters into the telemetry
		// registry, so the Prometheus/JSON exporters and the bench
		// snapshot see them without double instrumentation.
		if r == Default {
			telemetry.Default.CounterFunc(name, func() int64 { return int64(c.Load()) })
		}
	}
	return c
}

// Snapshot returns the current value of every registered counter.
func (r *Registry) Snapshot() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// Delta subtracts an earlier snapshot from a later one, dropping zero
// deltas, so a benchmark can report only the counters a run moved.
func Delta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for name, v := range after {
		if d := v - before[name]; d > 0 {
			out[name] = d
		}
	}
	return out
}
