package scenario

import "ds2hpc/internal/telemetry"

// DefaultHealthRules is the rollup-check catalog every scenario runs
// unless its Spec.Health overrides it. The rules watch the aggregator
// sources observe() registers, so they see exactly what `-watch` and
// the Report timeline see:
//
//   - queue-depth-watermark: total broker backlog (the sum of every
//     queue's live depth) climbing past the paper's consumer-starved
//     regime. Warn at 1024 messages, critical at 16384.
//   - reconnect-storm: the per-tick change of the scenario's reconnect
//     count. A couple of reconnects a tick is a broker restart doing
//     its job; dozens is clients thrashing.
//   - redirect-followed: the per-tick change of followed queue-master
//     redirects. Any redirect marks a failover in progress (warn);
//     hundreds a tick means ownership is ping-ponging (critical).
//   - federation-link-flap: downward movements of the live federation
//     link gauge — links dying and being re-dialed. One flap warns;
//     four in a window without stability is a flapping inter-node path.
//   - consume-stall: the consume rate pinned at zero for three
//     consecutive ticks while a run is live. Warn-only: a stall at the
//     tail of a run is normal for one tick, three ticks is a wedged
//     pipeline.
//   - under-replicated: replicated queues running below their declared
//     mirror count. One queue warns (a mirror is catching up or was
//     evicted); confirms are still safe — they wait on the in-sync
//     set — but another master kill could now lose availability.
func DefaultHealthRules() []telemetry.HealthRule {
	return []telemetry.HealthRule{
		{
			Name:   "queue-depth-watermark",
			Source: "queue_depth",
			Kind:   telemetry.RuleAbove,
			Warn:   1024, Critical: 16384,
		},
		{
			Name:   "reconnect-storm",
			Source: "reconnects",
			Kind:   telemetry.RuleAbove,
			Delta:  true,
			Warn:   3, Critical: 24,
		},
		{
			Name:   "redirect-followed",
			Source: "redirects",
			Kind:   telemetry.RuleAbove,
			Delta:  true,
			Warn:   1, Critical: 256,
		},
		{
			Name:   "federation-link-flap",
			Source: "federation_links",
			Kind:   telemetry.RuleFlap,
			Warn:   1, Critical: 4,
		},
		{
			Name:   "consume-stall",
			Source: "consumed",
			Kind:   telemetry.RuleBelow,
			Warn:   0, Critical: 0, // equal thresholds: warn-only
			For: 3,
		},
		{
			Name:   "under-replicated",
			Source: "underreplicated",
			Kind:   telemetry.RuleAbove,
			Warn:   1, Critical: 4,
		},
	}
}
