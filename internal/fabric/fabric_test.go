package fabric

import (
	"testing"
	"time"
)

func TestACEScalesRatesOnly(t *testing.T) {
	full := ACE(1.0)
	tenth := ACE(0.1)
	// Rates scale linearly.
	if tenth.DSNRateBps*10 != full.DSNRateBps {
		t.Errorf("DSN rate: %d vs %d", tenth.DSNRateBps, full.DSNRateBps)
	}
	if tenth.ProxyProcBps*10 != full.ProxyProcBps {
		t.Errorf("proxy proc: %d vs %d", tenth.ProxyProcBps, full.ProxyProcBps)
	}
	// Latencies do not scale (propagation is physics, not provisioning).
	if tenth.ClientLatency != full.ClientLatency {
		t.Error("latency must not scale")
	}
}

func TestACECapacityOrdering(t *testing.T) {
	p := ACE(1.0)
	// The calibration that produces the paper's comparative shape:
	// DTS (bounded by DSN links) > PRS (proxy proc) > MSS (LB proc shared
	// by both directions).
	if p.ProxyProcBps > p.DSNRateBps*2 {
		t.Error("proxy proc must not exceed the multi-node DSN aggregate")
	}
	if p.LBProcBps/2 >= p.ProxyProcBps {
		t.Error("per-direction LB capacity must trail the proxy capacity")
	}
	if p.TunnelFlowBps >= p.ProxyProcBps {
		t.Error("a single stunnel flow must trail the proxy capacity")
	}
}

func TestACEZeroScaleDefaultsToFull(t *testing.T) {
	if got := ACE(0); got.Scale != 1 {
		t.Errorf("scale = %f", got.Scale)
	}
	if got := ACE(-3); got.Scale != 1 {
		t.Errorf("scale = %f", got.Scale)
	}
}

func TestLinkConstructors(t *testing.T) {
	p := ACE(0.5)
	if l := p.DSNLink("d"); l.RateBps != p.DSNRateBps || l.Latency != p.ClientLatency {
		t.Error("DSNLink mismatch")
	}
	if l := p.ClientLink("c"); l.RateBps != p.ClientRateBps {
		t.Error("ClientLink mismatch")
	}
	if l := p.WANLink("w"); l.RateBps != p.WANRateBps || l.Latency != p.WANLatency {
		t.Error("WANLink mismatch")
	}
	if l := p.ProxyProcLink("p"); l.RateBps != p.ProxyProcBps || l.Latency != 0 {
		t.Error("ProxyProcLink mismatch")
	}
	if l := p.LBProcLink(); l.RateBps != p.LBProcBps {
		t.Error("LBProcLink mismatch")
	}
	if l := p.IngressProcLink(); l.RateBps != p.IngressProcBps {
		t.Error("IngressProcLink mismatch")
	}
}

func TestDefaultsAreSane(t *testing.T) {
	p := ACE(1.0)
	if p.LBWorkers <= 0 {
		t.Error("LB workers must be positive")
	}
	if p.LBSetupCost <= 0 || p.LBSetupCost > 100*time.Millisecond {
		t.Errorf("LB setup cost %v out of range", p.LBSetupCost)
	}
}
