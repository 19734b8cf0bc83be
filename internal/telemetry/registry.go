package telemetry

import (
	"sort"
	"strings"
	"sync"
)

// Registry names probes and hands out stable pointers. Probes are
// registered on first use under a metric name plus optional "key=value"
// tags; the rendered identity ("name{k=v,...}") keys the snapshot and
// the exporters. Lookups take the registry mutex — hot paths capture
// the returned probe once, never per event.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	watermarks map[string]*Watermark
	hists      map[string]*Histogram
	// funcs read values another subsystem already maintains; they are
	// invoked only at snapshot/export time.
	gaugeFuncs   map[string]func() int64
	counterFuncs map[string]func() int64

	// ctxProbes caches (name, Context) → counter resolutions so the
	// interned-context lookup path (CounterCtx in tags.go) never renders
	// tag strings after the first hit.
	ctxMu     sync.RWMutex
	ctxProbes map[ctxProbeKey]*Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		watermarks:   map[string]*Watermark{},
		hists:        map[string]*Histogram{},
		gaugeFuncs:   map[string]func() int64{},
		counterFuncs: map[string]func() int64{},
	}
}

// Default is the process-wide registry. Broker, transport and pattern
// probes register here; `streamsim -telemetry` serves it over HTTP.
var Default = NewRegistry()

// Key renders a metric identity from a name and "key=value" tags.
func Key(name string, tags ...string) string {
	if len(tags) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, t := range tags {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter registered under name+tags, creating it
// on first use. The returned pointer is stable.
func (r *Registry) Counter(name string, tags ...string) *Counter {
	return r.counterByKey(Key(name, tags...))
}

func (r *Registry) counterByKey(k string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge registered under name+tags.
func (r *Registry) Gauge(name string, tags ...string) *Gauge {
	return r.gaugeByKey(Key(name, tags...))
}

func (r *Registry) gaugeByKey(k string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Watermark returns the watermark registered under name+tags.
func (r *Registry) Watermark(name string, tags ...string) *Watermark {
	return r.watermarkByKey(Key(name, tags...))
}

func (r *Registry) watermarkByKey(k string) *Watermark {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.watermarks[k]
	if !ok {
		w = &Watermark{}
		r.watermarks[k] = w
	}
	return w
}

// Histogram returns the histogram registered under name+tags.
func (r *Registry) Histogram(name string, tags ...string) *Histogram {
	return r.histogramByKey(Key(name, tags...))
}

func (r *Registry) histogramByKey(k string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// SumGauges sums every gauge and callback gauge registered under the
// metric name across all tag contexts — the rollup read for "total
// queue depth" over per-queue tagged series. Callbacks run outside the
// registry lock.
func (r *Registry) SumGauges(name string) int64 {
	prefix := name + "{"
	var total int64
	var fns []func() int64
	r.mu.Lock()
	for k, g := range r.gauges {
		if k == name || strings.HasPrefix(k, prefix) {
			total += g.Load()
		}
	}
	for k, fn := range r.gaugeFuncs {
		if k == name || strings.HasPrefix(k, prefix) {
			fns = append(fns, fn)
		}
	}
	r.mu.Unlock()
	for _, fn := range fns {
		total += fn()
	}
	return total
}

// GaugeFunc registers (or replaces) a callback gauge read at snapshot
// time — for levels another subsystem already tracks, like a queue's
// depth. Re-registering under the same identity replaces the callback,
// so re-declared objects (a queue of the same name in a later
// deployment) supersede their predecessors.
func (r *Registry) GaugeFunc(name string, fn func() int64, tags ...string) {
	k := Key(name, tags...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[k] = fn
}

// Unregister removes the callback probe (gauge or counter func)
// registered under name+tags, so a deleted object's exports do not
// outlive it (and its closure does not pin it). Unknown identities are
// a no-op; direct probes (Counter/Gauge/Histogram/Watermark) are
// cumulative by design and are not removable.
func (r *Registry) Unregister(name string, tags ...string) {
	k := Key(name, tags...)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.gaugeFuncs, k)
	delete(r.counterFuncs, k)
}

// Snapshot is a frozen, JSON-serializable view of every probe in a
// registry. Map keys are rendered identities ("name{k=v}").
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Watermarks map[string]int64         `json:"watermarks,omitempty"`
	Histograms map[string]*HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Callback probes are invoked outside
// the registry lock so a slow reader cannot stall registration.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	watermarks := make(map[string]*Watermark, len(r.watermarks))
	for k, w := range r.watermarks {
		watermarks[k] = w
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, fn := range r.gaugeFuncs {
		gaugeFuncs[k] = fn
	}
	counterFuncs := make(map[string]func() int64, len(r.counterFuncs))
	for k, fn := range r.counterFuncs {
		counterFuncs[k] = fn
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]int64, len(counters)+len(counterFuncs)),
		Gauges:     make(map[string]int64, len(gauges)+len(gaugeFuncs)),
		Watermarks: make(map[string]int64, len(watermarks)),
		Histograms: make(map[string]*HistSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Load()
	}
	for k, fn := range counterFuncs {
		s.Counters[k] = fn()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Load()
	}
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, w := range watermarks {
		s.Watermarks[k] = w.Load()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// sortedKeys returns m's keys in sorted order (deterministic export).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
