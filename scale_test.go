// Client-scale contract tests: under a goroutine budget the client
// runtime must hold a whole work-sharing fleet — producers, consumers,
// pooled connections, plus the in-process brokers serving them — inside
// the budget while still delivering every message, and without one it
// must keep one socket per role instance. This is the asserted
// counterpart of BenchmarkClientScale (internal/amqp), which reports the
// same runtime's per-message cost and bytes/client.
package ds2hpc

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/telemetry"
)

// scaleSpec is a work-sharing spec tuned for fleet-size runs: client NIC
// shaping and LB control-plane costs are disabled (the runtime, not the
// simulated fabric, is under test), payloads are small, and every role
// channel multiplexes onto pooled connections under the goroutine budget.
func scaleSpec(clients, budget int) scenario.Spec {
	half := clients / 2
	return scenario.Spec{
		Deployment: scenario.Deployment{
			Architecture:         string(core.DTS),
			Nodes:                3,
			FabricScale:          benchScale,
			MemoryLimitBytes:     1 << 30,
			DisableClientShaping: true,
			FastControlPlane:     true,
		},
		Workload:            scenario.Workload{Name: "Dstream", PayloadBytes: 256},
		Pattern:             "work-sharing",
		Producers:           half,
		Consumers:           half,
		MessagesPerProducer: 1,
		Runs:                1,
		Tuning: scenario.Tuning{
			WorkQueues:      8,
			Prefetch:        8,
			Window:          4,
			GoroutineBudget: budget,
		},
		TimeoutMS: (2 * time.Minute).Milliseconds(),
	}
}

// TestClientScaleGoroutineBudget runs thousands of logical clients and
// asserts the process-wide goroutine peak stays within the configured
// budget — not just at the end, but sampled throughout the run.
func TestClientScaleGoroutineBudget(t *testing.T) {
	clients, budget := 2000, 96
	if testing.Short() {
		clients = 400
	}
	baseline := runtime.NumGoroutine()

	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	rep, err := scenario.Run(context.Background(), scaleSpec(clients, budget))
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(clients / 2); rep.Result.Consumed != want {
		t.Fatalf("consumed %d messages, want %d", rep.Result.Consumed, want)
	}
	// The sampler itself is one goroutine over baseline; everything else
	// above baseline belongs to the run and must fit the budget.
	if over := peak.Load() - int64(baseline) - 1; over > int64(budget) {
		t.Fatalf("goroutine peak %d (baseline %d) exceeds budget %d for %d clients",
			peak.Load(), baseline, budget, clients)
	}
}

// TestClientScaleSocketShape pins what the budget changes about sockets,
// counted as the connections the brokers accept during the run. Budget 0
// keeps the per-client sockets each architecture prices: every role
// instance dials a connection of its own. A budget packs the same role
// instances onto fewer connections.
func TestClientScaleSocketShape(t *testing.T) {
	const clients = 32
	for _, budget := range []int{0, 48} {
		spec := scaleSpec(clients, budget)
		spec.MessagesPerProducer = 64
		accepted := func() int64 {
			return telemetry.Default.Snapshot().Counters["broker.connections_accepted"]
		}
		before := accepted()
		rep, err := scenario.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if want := int64(clients / 2 * spec.MessagesPerProducer); rep.Result.Consumed != want {
			t.Fatalf("budget %d: consumed %d, want %d", budget, rep.Result.Consumed, want)
		}
		// Work sharing declares each work queue over a connection of its
		// own; every other connection belongs to role instances.
		roleConns := accepted() - before - int64(spec.Tuning.WorkQueues)
		if budget == 0 && roleConns != clients {
			t.Fatalf("budget 0: %d connections for %d role instances, want one each", roleConns, clients)
		}
		if budget > 0 && (roleConns < 1 || roleConns >= clients) {
			t.Fatalf("budget %d: %d connections for %d role instances, want fewer", budget, roleConns, clients)
		}
	}
}
