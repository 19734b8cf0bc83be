package telemetry

import (
	"sort"
	"strings"
	"sync"
)

// Context is the interned identity of one tag set ("queue=ws-q-0",
// "node=2", "arch=DTS"). Hot paths resolve a label set to a Context
// once — Intern is a table lookup behind a read lock — and from then on
// every probe lookup keys on (metric name, Context): a small integer
// compare instead of per-sample tag rendering. Contexts are process
// global and never freed; the table is bounded by the number of
// distinct label sets a deployment declares (queues × nodes × tiers),
// not by sample volume.
type Context uint32

// ContextNone is the empty tag set: probes resolved with it are
// identical to their untagged registrations.
const ContextNone Context = 0

// tagIntern is the process-wide tag-set table. Slot 0 is the empty
// set. Sets are canonicalized (sorted) before interning, so
// {"b=2","a=1"} and {"a=1","b=2"} share one Context.
var tagIntern = struct {
	sync.RWMutex
	byKey map[string]Context
	tags  [][]string // index = Context; canonical tag order
	sufs  []string   // rendered "{a=1,b=2}" identity suffix, "" at 0
}{
	byKey: map[string]Context{"": ContextNone},
	tags:  [][]string{nil},
	sufs:  []string{""},
}

// Intern resolves a tag set to its Context, creating one on first use.
// Tag order does not matter: sets are canonicalized by sorting. Intern
// allocates on the miss path only; call it at setup time (queue
// declare, link dial, role start), not per sample.
func Intern(tags ...string) Context {
	if len(tags) == 0 {
		return ContextNone
	}
	canon := make([]string, len(tags))
	copy(canon, tags)
	sort.Strings(canon)
	key := strings.Join(canon, ",")
	tagIntern.RLock()
	c, ok := tagIntern.byKey[key]
	tagIntern.RUnlock()
	if ok {
		return c
	}
	tagIntern.Lock()
	defer tagIntern.Unlock()
	if c, ok := tagIntern.byKey[key]; ok {
		return c
	}
	c = Context(len(tagIntern.tags))
	tagIntern.byKey[key] = c
	tagIntern.tags = append(tagIntern.tags, canon)
	tagIntern.sufs = append(tagIntern.sufs, "{"+key+"}")
	return c
}

// String renders the context as the identity suffix exporters use:
// "{a=1,b=2}", or "" for ContextNone (and unknown contexts).
func (c Context) String() string {
	tagIntern.RLock()
	defer tagIntern.RUnlock()
	if int(c) >= len(tagIntern.sufs) {
		return ""
	}
	return tagIntern.sufs[int(c)]
}

// KeyCtx renders the full metric identity for a name + interned
// context — the same "name{k=v,...}" form Key produces for explicit
// tags, so context-resolved and tag-resolved probes share series.
func KeyCtx(name string, ctx Context) string {
	return name + ctx.String()
}

// ctxProbeKey is the (metric, context) composite the counter lookup
// cache keys on. Struct map keys compare without rendering or
// allocating — this is what makes the tagged hot path free of
// per-sample string work.
type ctxProbeKey struct {
	name string
	ctx  Context
}

// CounterCtx returns the counter registered under name + the interned
// context. The first resolution renders the identity and registers the
// probe as Counter would; repeated resolutions are a read-locked map
// hit with zero allocations, so a per-sample CounterCtx on a hot path
// costs one map lookup plus the atomic add.
func (r *Registry) CounterCtx(name string, ctx Context) *Counter {
	k := ctxProbeKey{name, ctx}
	r.ctxMu.RLock()
	c, ok := r.ctxProbes[k]
	r.ctxMu.RUnlock()
	if ok {
		return c
	}
	c = r.counterByKey(KeyCtx(name, ctx))
	r.ctxMu.Lock()
	if r.ctxProbes == nil {
		r.ctxProbes = map[ctxProbeKey]*Counter{}
	}
	r.ctxProbes[k] = c
	r.ctxMu.Unlock()
	return c
}

// GaugeFuncCtx registers a read-at-export callback gauge under name +
// context (see GaugeFunc). Callbacks have no hot path, so this is just
// identity rendering.
func (r *Registry) GaugeFuncCtx(name string, ctx Context, fn func() int64) {
	k := KeyCtx(name, ctx)
	r.mu.Lock()
	r.gaugeFuncs[k] = fn
	r.mu.Unlock()
}

// CounterFuncCtx registers a read-at-export callback counter under
// name + context: a cumulative total maintained elsewhere.
func (r *Registry) CounterFuncCtx(name string, ctx Context, fn func() int64) {
	k := KeyCtx(name, ctx)
	r.mu.Lock()
	r.counterFuncs[k] = fn
	r.mu.Unlock()
}

// UnregisterCtx removes the callback probes registered under name +
// context (see Unregister).
func (r *Registry) UnregisterCtx(name string, ctx Context) {
	k := KeyCtx(name, ctx)
	r.mu.Lock()
	delete(r.gaugeFuncs, k)
	delete(r.counterFuncs, k)
	r.mu.Unlock()
}
