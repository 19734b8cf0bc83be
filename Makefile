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

# BENCH_PATTERN selects the snapshot benchmarks; README "Bench snapshots"
# says what each one pins.
BENCH_PATTERN ?= BenchmarkAblationAckBatching|BenchmarkAblationWorkQueues|BenchmarkAblationDurabilityPayload|BenchmarkOverheadVsDTS|BenchmarkResilienceFaultRate|BenchmarkFig6aDstreamFeedbackRTT|BenchmarkFanoutPublishDeliver|BenchmarkDurableFanoutPublishDeliver|BenchmarkSeglogAppend|BenchmarkSeglogReplay|BenchmarkFederationForward|BenchmarkTaggedCounter|BenchmarkMirroredPublishDeliver|BenchmarkPublishConfirmPipelined|BenchmarkLargeBodyPublishDeliver|BenchmarkSmallPublishDeliver|BenchmarkDeploy

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

# smoke runs every checked-in example spec through `streamsim scenario`
# (README "Bench snapshots" says what each one pins), then one small
# paper-figure table through `expdriver`.
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
	$(GO) run ./cmd/expdriver -fig 4a -cons 1 -msgs 8

race:
	$(GO) vet ./...
	$(GO) test -race ./...

# stress reruns the concurrency-heavy packages under the race detector,
# five times each at one and at two Ps: a schedule-dependent failure that
# one pass at the default GOMAXPROCS lets through gets ten more chances.
# internal/pattern is the client runtime every figure and scenario runs
# on, with its consumers on the connection read loops; internal/scistream
# handles each control connection's requests concurrently.
STRESS_PKGS := ./internal/broker ./internal/amqp ./internal/cluster ./internal/pattern ./internal/scistream
stress:
	GOMAXPROCS=1 $(GO) test -race -count=5 $(STRESS_PKGS)
	GOMAXPROCS=2 $(GO) test -race -count=5 $(STRESS_PKGS)

# fuzz gives each native fuzz target a few seconds over its seed corpus
# (go test -fuzz takes one target and one package per run).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseMethod$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReuse$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzClientContent$$' -fuzztime $(FUZZTIME) ./internal/amqp
	$(GO) test -run '^$$' -fuzz '^FuzzConfirmLog$$' -fuzztime $(FUZZTIME) ./internal/amqp
	$(GO) test -run '^$$' -fuzz '^FuzzInbound$$' -fuzztime $(FUZZTIME) ./internal/amqp
	$(GO) test -run '^$$' -fuzz '^FuzzSubscriptions$$' -fuzztime $(FUZZTIME) ./internal/amqp
	$(GO) test -run '^$$' -fuzz '^FuzzOutbound$$' -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run '^$$' -fuzz '^FuzzInbound$$' -fuzztime $(FUZZTIME) ./internal/broker
	$(GO) test -run '^$$' -fuzz '^FuzzMirrorSet$$' -fuzztime $(FUZZTIME) ./internal/cluster

short:
	$(GO) test -short -count=1 .

# bench-snapshot runs the short figure benchmarks once with -benchmem and
# writes BENCH_$(PR).json — a machine-readable perf snapshot (the
# trajectory across PRs is the table in README "Bench snapshots"). Keep
# -benchtime 1x: the goal is a comparable snapshot per PR,
# not statistical precision.
# The root figure harness runs first so its TestMain telemetry snapshot
# line is the one benchsnap embeds; the broker microbench output follows
# in the same stream, then the per-architecture deploy cost (200 deploys
# each: one is too noisy to compare, MICRO_ITERS of them take minutes),
# then the client-scale sweep (1k/10k/100k pooled clients — ns/op per
# delivered message, bytes/client, conns).
bench-snapshot:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(MICRO_ITERS) -benchmem ./internal/broker ./internal/broker/seglog ./internal/cluster ./internal/telemetry && \
	  $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 200x -benchmem ./internal/core && \
	  $(GO) test -run '^$$' -bench 'BenchmarkClientScale' -benchtime $(SCALE_ITERS) -benchmem ./internal/amqp ) \
		| $(GO) run ./cmd/benchsnap -out BENCH_$(PR).json
