# Developer entry points. Tier-1 verification matches CI: build, vet,
# race-tested unit suite, and the short paper-figure suite.

# bench-snapshot pipes `go test` into benchsnap; pipefail keeps a failing
# bench run from being masked by a successful parse of its partial output.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO ?= go
# PR labels the bench snapshot file (BENCH_<PR>.json); PR=baseline
# regenerates the one checked-in snapshot CI diffs against.
PR ?= dev

# BENCH_PATTERN selects the snapshot benchmarks: the ablation and
# overhead benches (the figure harness hot paths), the resilience
# fault-rate sweep introduced with the transport hop stack, the
# Fig6a feedback bench so the embedded telemetry snapshot's rtt_ns
# histogram carries real round-trip samples (tail latency, not just
# means), the broker fanout publish→deliver microbench (the zero-copy
# data-plane trajectory point) plus its durable twin (the price of
# crash safety on the same path), and the raw seglog append/replay
# benches (the durability engine in isolation), and the durability×payload
# cross (fsync tax vs payload amortization on durable queues), and the
# federation forward bench (zero-copy publish crossing an inter-node link),
# and the tagged-counter bench (interned-context probe lookup, pinned at
# 0 allocs/op), and the mirrored publish bench (the confirm-path price of
# synchronous replication, R=1 vs R=2), and the pipelined publish→confirm
# bench (broker socket writes per confirm-mode publish: confirm coalescing),
# and the large-body bench (1 MiB amqp client <-> broker: a body copy shows
# as ns/op, a per-message body allocation as ~1 MiB of B/op), and its 1 KiB
# twin (windows 1/8/64: socket writes per message on all three legs, and the
# one-in-flight round trip a deferred flush must not lengthen).
BENCH_PATTERN ?= BenchmarkAblationAckBatching|BenchmarkAblationWorkQueues|BenchmarkAblationDurabilityPayload|BenchmarkOverheadVsDTS|BenchmarkResilienceFaultRate|BenchmarkFig6aDstreamFeedbackRTT|BenchmarkFanoutPublishDeliver|BenchmarkDurableFanoutPublishDeliver|BenchmarkSeglogAppend|BenchmarkSeglogReplay|BenchmarkFederationForward|BenchmarkTaggedCounter|BenchmarkMirroredPublishDeliver|BenchmarkPublishConfirmPipelined|BenchmarkLargeBodyPublishDeliver|BenchmarkSmallPublishDeliver

# MICRO_ITERS fixes the iteration count for the broker microbenchmarks:
# unlike the figure benches (one timed scenario run each, hence 1x), the
# per-message data-plane benches need real iteration counts for a stable
# ns/op, and a fixed count keeps successive snapshots comparable.
MICRO_ITERS ?= 20000x

# SCALE_ITERS fixes the per-size iteration count for BenchmarkClientScale
# (internal/amqp): each size builds its client fleet once, then publishes
# exactly this many messages through it, so bytes/client and ns/op are
# comparable across snapshots without rebuilding 10⁵ sessions per round.
SCALE_ITERS ?= 2000x

.PHONY: test race stress fuzz short smoke bench-snapshot

test:
	$(GO) build ./...
	$(GO) test ./...

# smoke exercises the declarative scenario path end to end: every
# checked-in example spec (short scale) runs through `streamsim scenario`,
# including the fault-script and pipeline specs. The linkflap spec runs
# a second time with -watch so the live telemetry rollup path (probe →
# aggregator → OnTick) is exercised under injected faults. The
# crashrestart spec hard-kills every broker node mid-run and recovers
# durable queues from their segment logs; coldreplay attaches a late
# consumer at offset 0 and replays retained history. The scale10k spec
# runs 10⁴ pooled clients under a goroutine budget, via the -clients
# override so the flag path is exercised too. The failover spec runs a
# 3-node ring-placed cluster and hard-kills the busiest queue master
# mid-run: consumers follow redirects to the new master and nothing
# confirmed is lost. The failover_replicated spec raises the stakes:
# replication factor 2 and a rolling double kill — master first, then the
# node its mirror was promoted onto — survived on synchronous mirrors
# with zero segment-log relocation.
smoke:
	$(GO) run ./cmd/streamsim scenario examples/scenario/worksharing.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/pipeline.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/linkflap.json
	$(GO) run ./cmd/streamsim scenario -watch examples/scenario/linkflap.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/crashrestart.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/coldreplay.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/failover.json
	$(GO) run ./cmd/streamsim scenario examples/scenario/failover_replicated.json
	$(GO) run ./cmd/streamsim scenario -clients 10000 examples/scenario/scale10k.json

race:
	$(GO) vet ./...
	$(GO) test -race ./...

# stress reruns the concurrency-heavy packages under the race detector,
# five times each at one and at two Ps: a schedule-dependent failure that
# one pass at the default GOMAXPROCS lets through gets ten more chances.
STRESS_PKGS := ./internal/broker ./internal/amqp ./internal/cluster
stress:
	GOMAXPROCS=1 $(GO) test -race -count=5 $(STRESS_PKGS)
	GOMAXPROCS=2 $(GO) test -race -count=5 $(STRESS_PKGS)

# fuzz gives each native fuzz target a few seconds over its seed corpus
# (go test -fuzz takes one target and one package per run).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseMethod$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzClientContent$$' -fuzztime $(FUZZTIME) ./internal/amqp

short:
	$(GO) test -short -count=1 .

# bench-snapshot runs the short figure benchmarks once with -benchmem and
# writes BENCH_$(PR).json — a machine-readable perf snapshot (the
# trajectory across PRs is the table in README "Bench snapshots"). Keep
# -benchtime 1x: the goal is a comparable snapshot per PR,
# not statistical precision.
# The root figure harness runs first so its TestMain telemetry snapshot
# line is the one benchsnap embeds; the broker microbench output follows
# in the same stream, then the client-scale sweep (1k/10k/100k pooled
# clients — ns/op per delivered message, bytes/client, conns).
bench-snapshot:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(MICRO_ITERS) -benchmem ./internal/broker ./internal/broker/seglog ./internal/cluster ./internal/telemetry && \
	  $(GO) test -run '^$$' -bench 'BenchmarkClientScale' -benchtime $(SCALE_ITERS) -benchmem ./internal/amqp ) \
		| $(GO) run ./cmd/benchsnap -out BENCH_$(PR).json
