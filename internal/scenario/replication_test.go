package scenario

import (
	"context"
	"testing"
)

// TestRollingNodeKillScenario is the chaos schedule through the
// declarative surface: a 3-node clustered data plane with replication
// factor 2, one durable work queue, and a rolling-node-kill that first
// kills the queue's master and then the node its mirror was promoted
// onto — the double fault. Both failovers must resolve by mirror
// promotion (Promotions == 2), the run must lose nothing confirmed, and
// the re-mirroring between the kills must register as a catch-up.
func TestRollingNodeKillScenario(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Name: "rolling-kill-replicated",
		Deployment: Deployment{
			Architecture:         "DTS",
			ClusterNodes:         3,
			ReplicationFactor:    2,
			FabricScale:          0.2,
			DisableClientShaping: true,
			FastControlPlane:     true,
			Reconnect:            &Reconnect{MaxAttempts: 400, DelayMS: 5, MaxDelayMS: 25},
			Durability:           &Durability{Fsync: "always"},
		},
		Workload:            Workload{Name: "Dstream", PayloadBytes: 2048},
		Pattern:             "work-sharing",
		Producers:           4,
		Consumers:           4,
		MessagesPerProducer: 30,
		// One shared work queue so each kill hits exactly the queue's
		// current master and every failover is a promotion of its mirror.
		Tuning:    Tuning{WorkQueues: 1},
		Faults:    []Fault{{Kind: FaultRollingNodeKill, AtFraction: 0.25, EveryFraction: 0.3, Count: 2}},
		TimeoutMS: 60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodeKills != 2 {
		t.Fatalf("NodeKills = %d, want 2 (rolling schedule incomplete)", rep.NodeKills)
	}
	if rep.Promotions != 2 {
		t.Fatalf("Promotions = %d, want 2 (a failover fell back to log relocation)", rep.Promotions)
	}
	// Between the kills the promoted master re-mirrors its history onto
	// the remaining survivor; that resync is what makes the second kill
	// survivable.
	if rep.MirrorCatchups < 1 {
		t.Fatalf("MirrorCatchups = %d, want >= 1 (no resync between the kills)", rep.MirrorCatchups)
	}
	// At-least-once across both failovers: nothing confirmed is lost.
	if want := int64(120); rep.Result.Consumed < want {
		t.Fatalf("consumed %d, want at least %d (confirmed messages lost across the double fault)", rep.Result.Consumed, want)
	}
}

// TestRollingNodeKillSpecValidation pins the spec-level guardrails of
// the chaos schedule: it must not be declarable without the replication
// and survivability prerequisites it depends on.
func TestRollingNodeKillSpecValidation(t *testing.T) {
	base := Spec{
		Deployment: Deployment{
			Architecture:      "DTS",
			ClusterNodes:      3,
			ReplicationFactor: 2,
			Reconnect:         &Reconnect{MaxAttempts: 10},
			Durability:        &Durability{Fsync: "always"},
		},
		Workload:            Workload{Name: "generic"},
		Pattern:             "work-sharing",
		MessagesPerProducer: 1,
		Faults:              []Fault{{Kind: FaultRollingNodeKill, AtFraction: 0.2, EveryFraction: 0.2, Count: 2}},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid rolling-node-kill spec rejected: %v", err)
	}

	noRF := base
	noRF.Deployment.ReplicationFactor = 0
	if err := noRF.Validate(); err == nil {
		t.Fatal("rolling-node-kill without replication_factor must be rejected")
	}

	noSurvivor := base
	noSurvivor.Faults = []Fault{{Kind: FaultRollingNodeKill, AtFraction: 0.2, EveryFraction: 0.2, Count: 3}}
	if err := noSurvivor.Validate(); err == nil {
		t.Fatal("rolling-node-kill with count == cluster_nodes must be rejected")
	}

	rfTooWide := base
	rfTooWide.Deployment.ReplicationFactor = 4
	if err := rfTooWide.Validate(); err == nil {
		t.Fatal("replication_factor above cluster_nodes must be rejected")
	}

	rfNoDurability := base
	rfNoDurability.Faults = nil
	rfNoDurability.Deployment.Durability = nil
	if err := rfNoDurability.Validate(); err == nil {
		t.Fatal("replication_factor without durability must be rejected")
	}
}
