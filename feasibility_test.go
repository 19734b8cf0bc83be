// End-to-end coverage of the Stunnel 16-connection feasibility ceiling
// (§5.3: "a maximum of 16 simultaneous connections in our setup") through
// the full core.Deployment stack — client path → outbound S2DS → mux'd
// TLS tunnel → inbound S2DS → broker — rather than the unit-level mux
// tests in internal/scistream.
package ds2hpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/core"
	"ds2hpc/internal/fabric"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/scistream"
	"ds2hpc/internal/workload"
)

// feasibilityOptions keeps the deployment fast: small scaled links, no
// client shaping, no LB costs.
func feasibilityOptions() core.Options {
	p := fabric.ACE(0.05)
	p.LBSetupCost = 0
	p.RouteLookupLatency = 0
	return core.Options{Nodes: 3, Profile: p, DisableClientShaping: true}
}

func TestStunnelCeilingEndToEnd(t *testing.T) {
	dep, err := core.Deploy(core.PRSStunnel, feasibilityOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.MaxProducerConns() != scistream.StunnelMaxStreams {
		t.Fatalf("ceiling %d, want %d", dep.MaxProducerConns(), scistream.StunnelMaxStreams)
	}

	// All connections target one queue, so they share one session tunnel
	// (the binding limit for the paper's work-sharing workload).
	const queue = "ws-q-0"
	ep := dep.ProducerEndpoint(queue)
	var conns []*amqp.Connection
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < scistream.StunnelMaxStreams; i++ {
		c, err := ep.Connect()
		if err != nil {
			t.Fatalf("connection %d within the ceiling failed: %v", i+1, err)
		}
		conns = append(conns, c)
	}
	if c, err := ep.Connect(); err == nil {
		c.Close()
		t.Fatalf("connection %d must be refused by the tunnel", scistream.StunnelMaxStreams+1)
	}

	// Closing a connection frees its tunnel stream (after the half-close
	// handshake drains through the relay), so a new client fits again.
	conns[0].Close()
	conns = conns[1:]
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := ep.Connect()
		if err == nil {
			conns = append(conns, c)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream slot never freed after closing a connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStunnelInfeasibleSurfacesThroughPattern pins how the ceiling
// surfaces to experiment code: pattern runs report ErrInfeasible, and the
// scenario layer turns that into an Infeasible report (the paper's missing
// data points) instead of an error.
func TestStunnelInfeasibleSurfacesThroughPattern(t *testing.T) {
	dep, err := core.Deploy(core.PRSStunnel, feasibilityOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	w := workload.Dstream
	w.PayloadBytes = 2048
	_, err = pattern.Run(context.Background(), "work-sharing", pattern.Config{
		Deployment:          dep,
		Workload:            w,
		Producers:           scistream.StunnelMaxStreams + 1,
		Consumers:           2,
		MessagesPerProducer: 1,
		Timeout:             10 * time.Second,
	})
	if !errors.Is(err, pattern.ErrInfeasible) {
		t.Fatalf("pattern error = %v, want ErrInfeasible", err)
	}

	rep, err := scenario.RunOn(context.Background(), dep, scenario.Spec{
		Deployment:          scenario.Deployment{Architecture: string(core.PRSStunnel)},
		Workload:            scenario.Workload{Name: w.Name, PayloadBytes: w.PayloadBytes},
		Pattern:             pattern.WorkSharingName,
		Producers:           scistream.StunnelMaxStreams + 1,
		Consumers:           2,
		MessagesPerProducer: 1,
		TimeoutMS:           10000,
	})
	if err != nil {
		t.Fatalf("scenario must absorb infeasibility, got %v", err)
	}
	if !rep.Infeasible {
		t.Fatal("scenario report must be marked infeasible")
	}
}
