// Package fabric defines the emulated network topology of the paper's
// testbed: OLCF's Advanced Computing Ecosystem, where Andes compute nodes
// (producers/consumers) reach the Data Streaming Nodes (broker, proxies)
// over a 1 Gbps Ethernet path, and the DSNs bridge to the WAN.
//
// All rates scale with a single factor so the full-size topology can be
// shrunk for fast benchmark runs while preserving every capacity ratio —
// the property the paper's comparative results depend on.
package fabric

import (
	"time"

	"ds2hpc/internal/netem"
)

// Profile captures the capacity plan of one emulated deployment.
type Profile struct {
	// Scale multiplies every rate; 1.0 is the paper's testbed.
	Scale float64

	// DSNRateBps is each Data Streaming Node's usable line rate. The
	// paper's DSNs have 100 Gbps adapters but are limited to 1 Gbps by
	// the OpenShift/SRIOV configuration issues described in §6.
	DSNRateBps int64
	// ClientRateBps is each Andes node's NIC rate (per connection).
	ClientRateBps int64
	// WANRateBps bounds one overlay tunnel session.
	WANRateBps int64
	// ProxyProcBps models one S2DS proxy's forwarding capacity.
	ProxyProcBps int64
	// LBProcBps models the hardware load balancer's forwarding capacity
	// (shared by every MSS flow in both directions).
	LBProcBps int64
	// IngressProcBps models the OpenShift ingress data path.
	IngressProcBps int64
	// TunnelFlowBps caps one long-lived tunnel flow (the Stunnel model:
	// a single TLS stream gets a single flow's share of the path).
	TunnelFlowBps int64

	// ClientLatency is the one-way Andes-to-DSN latency.
	ClientLatency time.Duration
	// WANLatency is the one-way latency across the overlay tunnel.
	WANLatency time.Duration
	// LBSetupCost is per-connection admission work at the LB.
	LBSetupCost time.Duration
	// RouteLookupLatency is per-connection route resolution.
	RouteLookupLatency time.Duration
	// LBWorkers bounds concurrent connection setups at the LB.
	LBWorkers int
}

// ACE returns the paper-calibrated profile scaled by the given factor.
// Capacity ratios follow §5/§6: DTS is bounded by the three DSNs' 1 Gbps
// links; the S2DS proxies forward at roughly half the aggregate DSN rate
// (PRS peaks near half of DTS); the LB and ingress each carry somewhat less
// while serving both producer and consumer directions (MSS peaks near a
// third of DTS and queues hard at high fan-in).
func ACE(scale float64) Profile {
	if scale <= 0 {
		scale = 1
	}
	s := func(bps float64) int64 { return int64(bps * scale) }
	return Profile{
		Scale:          scale,
		DSNRateBps:     s(1e9),
		ClientRateBps:  s(1e9),
		WANRateBps:     s(2.0e9),
		ProxyProcBps:   s(1.0e9),
		LBProcBps:      s(1.4e9),
		IngressProcBps: s(2.0e9),
		TunnelFlowBps:  s(0.6e9),

		ClientLatency:      time.Millisecond,
		WANLatency:         time.Millisecond,
		LBSetupCost:        2 * time.Millisecond,
		RouteLookupLatency: 300 * time.Microsecond,
		LBWorkers:          16,
	}
}

// DSNLink builds the shared link for one Data Streaming Node.
func (p Profile) DSNLink(name string) *netem.Link {
	return netem.NewLink(name, p.DSNRateBps, p.ClientLatency)
}

// ClientLink builds a per-connection client NIC link.
func (p Profile) ClientLink(name string) *netem.Link {
	return netem.NewLink(name, p.ClientRateBps, p.ClientLatency)
}

// WANLink builds one overlay tunnel link.
func (p Profile) WANLink(name string) *netem.Link {
	return netem.NewLink(name, p.WANRateBps, p.WANLatency)
}

// ProxyProcLink builds one S2DS processing link.
func (p Profile) ProxyProcLink(name string) *netem.Link {
	return netem.NewLink(name, p.ProxyProcBps, 0)
}

// LBProcLink builds the load balancer processing link.
func (p Profile) LBProcLink() *netem.Link {
	return netem.NewLink("lb-proc", p.LBProcBps, 0)
}

// IngressProcLink builds the ingress processing link.
func (p Profile) IngressProcLink() *netem.Link {
	return netem.NewLink("ingress-proc", p.IngressProcBps, 0)
}
