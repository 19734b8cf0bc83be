// Resilience scenarios: the paper's architectures under injected
// cross-facility path faults. TestResilience* checks that a pattern run
// completes across an injected link flap via client auto-reconnect (the
// companion messaging study's point that resilience of the
// facility-spanning path, not just raw overhead, decides architecture
// choice); BenchmarkResilienceFaultRate sweeps fault rate × architecture
// so the throughput cost of outages is a measurable figure.
//
// The flap scenario is fully declarative: the scripted fault is part of
// the scenario.Spec, so the same run is reproducible from a JSON file via
// `streamsim scenario`.
package ds2hpc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/core"
	"ds2hpc/internal/fabric"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/workload"
)

// resilienceWorkload keeps payloads small so runs are fast but still
// span many fault-hop writes.
func resilienceWorkload() workload.Workload {
	w := workload.Dstream
	w.PayloadBytes = 8192
	return w
}

// resiliencePolicy retries fast enough to outlast the injected outages.
func resiliencePolicy() *amqp.ReconnectPolicy {
	return &amqp.ReconnectPolicy{MaxAttempts: 60, Delay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// resilienceOptions wires a fault injector and reconnect policy into the
// deployment's client paths.
func resilienceOptions(inj *transport.Injector) core.Options {
	p := fabric.ACE(0.2)
	p.LBSetupCost = 0
	p.RouteLookupLatency = 0
	return core.Options{
		Nodes:                3,
		Profile:              p,
		DisableClientShaping: true,
		Faults:               inj,
		Reconnect:            resiliencePolicy(),
	}
}

// resilienceSpec is the declarative form of the same scenario: deployment,
// reconnect policy, and the scripted mid-run flap in one Spec value.
func resilienceSpec(arch core.ArchitectureName, producers, consumers, messages int) scenario.Spec {
	return scenario.Spec{
		Name: "link-flap-resilience",
		Deployment: scenario.Deployment{
			Architecture:         string(arch),
			Nodes:                3,
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Reconnect:            &scenario.Reconnect{MaxAttempts: 60, DelayMS: 5, MaxDelayMS: 50},
		},
		Workload:            scenario.Workload{Name: "Dstream", PayloadBytes: 8192},
		Pattern:             "work-sharing",
		Producers:           producers,
		Consumers:           consumers,
		MessagesPerProducer: messages,
		// Fire the flap once roughly half the payload traffic has crossed
		// the faulted path: deterministically mid-run.
		Faults:    []scenario.Fault{{Kind: scenario.FaultFlap, AtFraction: 0.5, DownMS: 80}},
		TimeoutMS: (60 * time.Second).Milliseconds(),
	}
}

// resilienceArchitectures are the variants exercised under faults.
// Stunnel is excluded (its ceiling dominates; §5.4 drops it as well).
var resilienceArchitectures = []core.ArchitectureName{core.DTS, core.PRSHAProxy, core.MSS}

// TestResilienceWorkSharingAcrossLinkFlap is the acceptance scenario: a
// work-sharing run whose facility-spanning path flaps mid-run — every
// live client connection reset and redials refused for the outage
// window — must still complete, with clients reconnecting and replaying
// unconfirmed publishes.
func TestResilienceWorkSharingAcrossLinkFlap(t *testing.T) {
	archs := resilienceArchitectures
	if testing.Short() {
		archs = archs[:1]
	}
	for _, arch := range archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			const producers, consumers, messages = 2, 2, 16
			reconnects := telemetry.Default.Counter("amqp.reconnects")
			before := reconnects.Load()
			rep, err := scenario.Run(context.Background(), resilienceSpec(arch, producers, consumers, messages))
			if err != nil {
				t.Fatalf("run did not survive the flap: %v", err)
			}
			want := int64(producers * messages)
			if rep.Result.Consumed < want {
				t.Fatalf("consumed %d < %d", rep.Result.Consumed, want)
			}
			if rep.Faults.Flaps == 0 {
				t.Fatal("scripted flap never fired")
			}
			if reconnects.Load() == before {
				t.Fatal("no client reconnected across the flap")
			}
		})
	}
}

// TestResilienceMidStreamResets injects bare connection resets (no dial
// outage): reconnects should be immediate and the run must complete. The
// resets are triggered manually mid-run (not a byte-armed script), so this
// test drives the injector and pattern engine directly.
func TestResilienceMidStreamResets(t *testing.T) {
	inj := transport.NewInjector()
	dep, err := core.Deploy(core.DTS, resilienceOptions(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	const producers, consumers, messages = 2, 2, 12
	w := resilienceWorkload()
	done := make(chan struct{})
	go func() {
		// Two reset rounds spread across the run.
		for i := 0; i < 2; i++ {
			select {
			case <-done:
				return
			case <-time.After(30 * time.Millisecond):
				inj.ResetConns()
			}
		}
	}()
	res, err := pattern.Run(context.Background(), "work-sharing", pattern.Config{
		Deployment:          dep,
		Workload:            w,
		Producers:           producers,
		Consumers:           consumers,
		MessagesPerProducer: messages,
		Timeout:             60 * time.Second,
	})
	close(done)
	if err != nil {
		t.Fatalf("run did not survive resets: %v", err)
	}
	if want := int64(producers * messages); res.Consumed < want {
		t.Fatalf("consumed %d < %d", res.Consumed, want)
	}
}

// BenchmarkResilienceFaultRate sweeps fault rate × architecture: flaps
// per run from 0 (baseline) to 2, reporting throughput alongside the
// reconnects each run needed. This is the resilience counterpart of the
// Figure 4 throughput comparison, driven entirely by declarative specs.
func BenchmarkResilienceFaultRate(b *testing.B) {
	const producers, consumers, messages = 2, 2, 16
	for _, arch := range resilienceArchitectures {
		for _, flaps := range []int{0, 1, 2} {
			b.Run(fmt.Sprintf("%s/flaps=%d", arch, flaps), func(b *testing.B) {
				spec := resilienceSpec(arch, producers, consumers, messages)
				spec.Faults = nil
				if flaps > 0 {
					spec.Faults = []scenario.Fault{{
						Kind:          scenario.FaultFlapEvery,
						EveryFraction: 1 / float64(flaps+1),
						Count:         flaps,
						DownMS:        50,
					}}
				}
				reconnectsTotal := telemetry.Default.Counter("amqp.reconnects")
				var reconnects int64
				var last float64
				for i := 0; i < b.N; i++ {
					before := reconnectsTotal.Load()
					rep, err := scenario.Run(context.Background(), spec)
					if err != nil {
						b.Fatal(err)
					}
					last = rep.Result.Throughput
					reconnects += reconnectsTotal.Load() - before
				}
				b.ReportMetric(last, "msgs_per_sec")
				b.ReportMetric(float64(reconnects)/float64(b.N), "reconnects/op")
			})
		}
	}
}
