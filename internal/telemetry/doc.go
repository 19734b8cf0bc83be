// Package telemetry is the live observability subsystem: lock-free
// instrumentation probes, a tick-driven time-series aggregator, and
// exporters, so a cross-facility streaming run can be watched while it
// happens instead of summarized after it ends.
//
// The pipeline runs in the style of the datadog-agent aggregator:
//
//	probes ──► aggregator ──► exporters (Prometheus/JSON, pull)
//	                 │
//	                 ├─► health monitor ──► transition log
//	                 └─► forwarder ──► sink (off-box collector, push)
//
// # Probes
//
// Probes are the hot-path primitives. All of them update with atomic
// operations only — no mutex, no allocation — so they can sit on the
// broker publish path or a consumer delivery loop:
//
//   - Counter: a monotonic event counter. Hot goroutines capture a
//     Shard once and add to it, spreading contended increments across
//     cache-line-padded slots; Load sums the shards.
//   - Gauge: an instantaneous level (queue depth, in-flight messages).
//   - Watermark: a monotonic maximum (peak queue depth).
//   - Histogram: a fixed-bucket log-linear streaming histogram of
//     int64 values (nanoseconds, bytes). Memory is bounded (~15 KiB)
//     regardless of sample count, snapshots are mergeable, and
//     percentiles/CDFs are extracted from bucket boundaries with a
//     relative error of at most one bucket width (~3%).
//
// A Registry names probes (optionally with key=value tags) and hands
// out stable pointers; Default is the process-wide registry. Every
// process-wide counter registers there, the hot-path ones (wire,
// transport, broker batching, client reconnects) at package init.
// GaugeFunc and CounterFuncCtx register read-at-export callbacks for
// values another subsystem already maintains (a queue's depth, an
// atomic server stat).
//
// # Tagged contexts
//
// Intern canonicalizes a "key=value" tag set once (sorted, deduplicated
// by content) into a small integer Context; CounterCtx resolves
// (name, Context) through a read-locked cache, so a hot path
// that keys series by {queue, node, arch} renders tag strings exactly
// once — at interning — and never per lookup or per sample
// (BenchmarkTaggedCounter pins the warm path at 0 allocs/op). A
// context-keyed probe and a tag-keyed probe with the same canonical
// identity are the same probe; the only difference is that Intern
// sorts its tags while Key preserves argument order, so multi-tag call
// sites should pass tags pre-sorted if they mix both styles. SumGauges
// rolls a tagged family up across all of its contexts (total queue
// depth over per-queue gauges).
//
// # Aggregator
//
// An Aggregator snapshots observed sources on a tick (1s by default)
// into ring-buffered time series: counters become per-second rates,
// gauges become levels. Stop performs a final partial tick so runs
// shorter than one interval still produce a data point. An OnTick
// callback delivers each rollup live — this is what `streamsim
// scenario -watch` prints.
//
// # Health checks
//
// A HealthMonitor evaluates declarative HealthRules against every
// tick: above/below threshold rules over a source's level or per-tick
// delta, and flap rules counting downward movements of a gauge. Rules
// carry warn/critical thresholds with For/Clear tick hysteresis; each
// state change is a typed HealthEvent appended to the transition log
// (scenario Reports carry it as HealthEvents) and returned by Eval to
// its caller. The default scenario catalog lives in
// internal/scenario (DefaultHealthRules): queue-depth watermark,
// reconnect storm, redirect-followed, federation-link flap, and
// consume stall.
//
// # Exporters
//
// Registry.Snapshot freezes every probe into a JSON-serializable
// Snapshot; WritePrometheus renders a snapshot in the Prometheus text
// exposition format (histograms as cumulative le-buckets). Serve
// exposes both from an opt-in HTTP endpoint: GET /metrics and
// GET /snapshot.json (Shutdown drains in-flight scrapes on teardown).
// For push-style export, the telemetry/forwarder subpackage ships
// ticks, health transitions, and snapshots to an off-box collector
// through a bounded retry queue — see its package documentation.
package telemetry
