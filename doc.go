// Package ds2hpc reproduces "From Edge to HPC: Investigating Cross-Facility
// Data Streaming Architectures" (George et al., INDIS/SC 2025): three
// streaming architectures (DTS, PRS, MSS) built on a from-scratch AMQP
// broker, SciStream-style proxies, an MSS load-balancer stack, and a
// network-emulation fabric, evaluated with the paper's three workloads and
// messaging patterns.
//
// The root package holds the paper-figure harness: bench_test.go has one
// benchmark per table and figure in the paper's evaluation, and
// figures_test.go has a short deterministic Test* counterpart for each
// scenario so `go test ./...` regression-guards the whole stack.
//
// Every data point — deployment, workload, pattern, client counts,
// tuning, fault script, runs — is one declarative scenario.Spec, run by
// scenario.Run or from the command line:
//
//	go run ./cmd/streamsim scenario examples/scenario/worksharing.json
//
// Reproduce a paper figure by running its benchmark, e.g.
//
//	go test -bench BenchmarkFig4aDstreamWorkSharing -benchmem .
//
// README.md is the reference: the module layout, the per-architecture hop
// chains, the Scenario API, telemetry, the memory and zero-copy ownership
// model, confirm semantics, the durability and cluster models, the client
// runtime, how to run the suite, and the figure-to-benchmark map.
package ds2hpc
