package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternCanonicalOrder(t *testing.T) {
	a := Intern("queue=q1", "node=n1")
	b := Intern("node=n1", "queue=q1")
	if a != b {
		t.Fatalf("tag order changed the interned context: %d vs %d", a, b)
	}
	if got, want := a.String(), "{node=n1,queue=q1}"; got != want {
		t.Fatalf("suffix %q, want %q", got, want)
	}
	if got, want := KeyCtx("broker.published", a), "broker.published{node=n1,queue=q1}"; got != want {
		t.Fatalf("KeyCtx %q, want %q", got, want)
	}
	if c := Intern(); c != ContextNone {
		t.Fatalf("empty tag set interned to %d, want ContextNone", c)
	}
	if got := ContextNone.String(); got != "" {
		t.Fatalf("ContextNone suffix %q, want empty", got)
	}
}

func TestInternConcurrent(t *testing.T) {
	const goroutines, sets = 8, 64
	ctxs := make([][]Context, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctxs[g] = make([]Context, sets)
			for i := 0; i < sets; i++ {
				ctxs[g][i] = Intern(fmt.Sprintf("queue=conc-q%d", i), "arch=dts")
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < sets; i++ {
			if ctxs[g][i] != ctxs[0][i] {
				t.Fatalf("goroutine %d interned set %d to %d, goroutine 0 got %d",
					g, i, ctxs[g][i], ctxs[0][i])
			}
		}
	}
}

// TestCtxProbeIdentity pins the bridge between the two lookup styles:
// a context-keyed probe and a tag-keyed probe with the same canonical
// identity are the same probe, so exports see one series.
func TestCtxProbeIdentity(t *testing.T) {
	r := NewRegistry()
	ctx := Intern("queue=idq")
	c1 := r.CounterCtx("broker.published", ctx)
	c2 := r.Counter("broker.published", "queue=idq")
	if c1 != c2 {
		t.Fatal("ctx-keyed and tag-keyed lookups returned different counters")
	}
	c1.Add(3)
	snap := r.Snapshot()
	if got := snap.Counters["broker.published{queue=idq}"]; got != 3 {
		t.Fatalf("snapshot shows %d under the tagged identity, want 3", got)
	}

	// Same name under a different context is a different series.
	other := r.CounterCtx("broker.published", Intern("queue=other"))
	if other == c1 {
		t.Fatal("distinct contexts resolved to the same counter")
	}
}

// TestCtxLookupAllocFree pins the tentpole contract: after the first
// resolution, context-keyed lookups never render tag strings — the hot
// path is a read-locked map hit with zero allocations.
func TestCtxLookupAllocFree(t *testing.T) {
	r := NewRegistry()
	ctx := Intern("queue=hot", "node=n0")
	r.CounterCtx("broker.published", ctx) // warm the cache
	got := testing.AllocsPerRun(200, func() {
		r.CounterCtx("broker.published", ctx).Shard(0).Inc()
	})
	if got > 0 {
		t.Fatalf("warm ctx lookup allocates %.1f objects/op, want 0", got)
	}
}

func TestCtxFuncProbes(t *testing.T) {
	r := NewRegistry()
	ctx := Intern("queue=fnq")
	depth := int64(17)
	r.GaugeFuncCtx("broker.queue_depth", ctx, func() int64 { return depth })
	r.CounterFuncCtx("broker.queue_published", ctx, func() int64 { return 5 })

	snap := r.Snapshot()
	if got := snap.Gauges["broker.queue_depth{queue=fnq}"]; got != 17 {
		t.Fatalf("gauge func export %d, want 17", got)
	}
	if got := snap.Counters["broker.queue_published{queue=fnq}"]; got != 5 {
		t.Fatalf("counter func export %d, want 5", got)
	}
	if got := r.SumGauges("broker.queue_depth"); got != 17 {
		t.Fatalf("SumGauges %d, want 17", got)
	}

	r.UnregisterCtx("broker.queue_depth", ctx)
	r.UnregisterCtx("broker.queue_published", ctx)
	snap = r.Snapshot()
	if _, ok := snap.Gauges["broker.queue_depth{queue=fnq}"]; ok {
		t.Fatal("gauge func survived UnregisterCtx")
	}
	if _, ok := snap.Counters["broker.queue_published{queue=fnq}"]; ok {
		t.Fatal("counter func survived UnregisterCtx")
	}
}

func TestSumGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("broker.queue_depth", "queue=a").Set(10)
	r.Gauge("broker.queue_depth", "queue=b").Set(20)
	r.GaugeFunc("broker.queue_depth", func() int64 { return 5 }, "queue=c")
	r.Gauge("broker.queue_depths").Set(1000) // prefix but different family
	if got := r.SumGauges("broker.queue_depth"); got != 35 {
		t.Fatalf("SumGauges = %d, want 35", got)
	}
	if got := r.SumGauges("absent.metric"); got != 0 {
		t.Fatalf("SumGauges(absent) = %d, want 0", got)
	}
}

func BenchmarkTaggedCounter(b *testing.B) {
	r := NewRegistry()
	ctx := Intern("queue=bench-q", "node=n1", "arch=dts")
	r.CounterCtx("broker.published", ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CounterCtx("broker.published", ctx).Shard(0).Inc()
	}
}
