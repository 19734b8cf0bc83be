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
// # Module layout
//
//	internal/wire       AMQP 0-9-1 framing codec: pooled frame/body
//	                    buffers, coalescing frame builder, method and
//	                    content-header encodings
//	internal/broker     the broker: sharded exchange routing and queue
//	                    registries, prefetch-aware queues, batched
//	                    delivery writers and one outbound delivery core
//	                    per channel that settles every delivery
//	internal/amqp       client library (connections, channels, confirms)
//	                    with bounded auto-reconnect and publish replay
//	internal/transport  the client→service hop stack: Path/Hop dial
//	                    composition, shared half-close-correct Relay,
//	                    admission gates, and the WAN fault injector
//	internal/telemetry  live observability: lock-free probes (sharded
//	                    counters, gauges, watermarks, streaming
//	                    histogram), tick aggregator with ring-buffered
//	                    time series, Prometheus/JSON exporters and the
//	                    opt-in HTTP endpoint
//	internal/metrics    experiment results (throughput, RTT CDFs, run
//	                    merging, overhead vs DTS) built on telemetry
//	                    probes
//	internal/core       architecture deployments (DTS, PRS variants,
//	                    MSS), each a transport.Path hop composition
//	internal/pattern    messaging patterns as declarative role graphs
//	                    (work sharing, feedback, broadcast,
//	                    broadcast-gather, pipeline) executed by one
//	                    shared role engine
//	internal/scenario   the declarative experiment surface: a
//	                    JSON-serializable Spec per data point, executed
//	                    by scenario.Run; PaperPoint builds the Spec of
//	                    a paper figure point
//	internal/fabric     emulated ACE testbed capacities
//	internal/netem      link shaping (rate, latency)
//	internal/workload   Table 1 payload generators (Dstream, Lstream,
//	                    generic)
//	internal/scistream  SciStream-style control/data proxies
//	internal/mss        MSS load balancer and S3M control plane
//	internal/cluster    clustered broker data plane: consistent-hash
//	                    queue placement, inter-node federation links,
//	                    synchronous queue mirrors with in-sync
//	                    promotion, queue-master failover, and the
//	                    Shovel mover
//	cmd/                rmq-server, streamsim (with the §5.2 distributed
//	                    coordinator), scistream, s3m, expdriver,
//	                    benchsnap
//	examples/           runnable end-to-end scenarios
//
// # Connection paths
//
// A client→service connection is an ordered transport.Path of hops,
// matching the paper's Figure 3: DTS is fault→link→TLS straight to a
// broker NodePort; PRS inserts the SciStream S2DS pair and its mTLS
// overlay tunnel; MSS redirects to the load balancer's front door with
// the service FQDN as SNI, through LB admission and the ingress. The
// deployments in internal/core only compose hops — there is no
// per-architecture dial or relay code — and resilience scenarios
// (resilience_test.go) script WAN faults into the same paths while
// clients ride them out via amqp.Config.Reconnect.
//
// # The Scenario API
//
// One experiment data point — deployment, workload, pattern, client
// counts, tuning knobs, fault script, run count — is one declarative
// scenario.Spec value, JSON-serializable end to end:
//
//	rep, err := scenario.Run(ctx, scenario.Spec{
//	    Deployment: scenario.Deployment{Architecture: "PRS(HAProxy)", FabricScale: 0.2,
//	        Reconnect: &scenario.Reconnect{MaxAttempts: 60, DelayMS: 5, MaxDelayMS: 50}},
//	    Workload:            scenario.Workload{Name: "Dstream", PayloadBytes: 8192},
//	    Pattern:             "work-sharing",
//	    Producers:           2,
//	    Consumers:           2,
//	    MessagesPerProducer: 16,
//	    Faults:              []scenario.Fault{{Kind: scenario.FaultFlap, AtFraction: 0.5, DownMS: 80}},
//	})
//
// The same document in a .json file runs via `streamsim scenario
// <spec.json>` (see examples/scenario). Under the spec, every pattern is
// a pattern.Graph: a declarative role graph (queues and exchanges to
// declare, producer/consumer roles with publish, reply and flow-control
// behaviors) executed by one shared producer loop and one shared consumer
// loop, with confirm windows, batch acks, prefetch and channel-signaled
// completion counting implemented exactly once. Adding a pattern is a
// ~50-line Build function — the multi-stage pipeline pattern
// (edge → filter → HPC fan-in aggregation) is registered that way.
//
// # Telemetry
//
// internal/telemetry is the live observability subsystem, a
// probe → aggregator → exporter pipeline. Probes are lock-free and
// alloc-free on the hot path — sharded atomic counters, gauges,
// watermarks, and a bounded log-scale streaming histogram — and are
// wired through the broker (per-queue depth/publish/ack/requeue rates,
// peak depth, connection counts), the transport layer (relayed bytes,
// dial/fault-injection events), and the pattern role engine (per-role
// produced/consumed/in-flight, publish→confirm latency). The
// aggregator rolls observed sources into per-second time series; every
// scenario.Report carries P50/P95/P99 latency percentiles and a
// consumer-throughput Timeline from it.
//
// metrics.Collector records RTTs into the streaming histogram instead
// of an unbounded sample slice, so collector memory is constant at any
// message volume and the Figure 5/8 CDFs are derived from histogram
// buckets (within one bucket width, ~3%, of the exact sorted-sample
// statistics).
//
// Live access: `streamsim scenario -watch <spec.json>` prints
// per-second rollups (rates, errors, flaps, reconnects);
// `-telemetry <addr>` serves GET /metrics (Prometheus text) and
// GET /snapshot.json for the duration of a run.
//
// # Memory model & zero-copy ownership
//
// A message body is copied once per receive and not at all per send:
// ingest assembles the frame payloads into a wire-pool buffer presized
// from the content header's BodySize (pooled by size class up to 4 MiB;
// larger bodies allocate). From there the body is borrowed, never
// copied — fanout/topic routing shares one refcounted broker.Message
// across all matched queues (per-queue redelivered state lives in the
// queue's chunked ring-deque entry, not the message), and sends —
// broker deliveries and client publishes alike — frame around the
// caller's slice. wire.FlushFrames decides per destination what that
// means: one writev on a raw TCP socket; elsewhere (TLS, netem-shaped
// sockets) pieces under 64 KiB are gathered into one write and full body
// frames are written in place. Whichever owner resolves last — ack,
// nack/reject discard, drop-head eviction, purge, queue delete, or
// connection teardown — returns the buffer to the pool; the
// wire.loaned_bytes gauge and broker.body_releases counter make the
// lifecycle observable.
//
// Frames decode without allocating: each connection's frame reader owns
// one wire.Decoder, each channel a wire.Slots — the decode targets of
// basic.publish, basic.deliver, basic.ack/nack and the content header,
// per channel because content assembly is. A decoded method or header is
// valid until that channel's next frame of the same kind, so whatever
// outlives the frame is copied out of it; its strings may be kept as
// they are, since decoding interns against the channel's last value per
// field and allocates a fresh string when a value changes.
// wire.ParseMethod and wire.ParseContentHeader are that decoder without
// slots. Publishes, acks and deliveries encode from connection-owned
// method structs, and settlements and confirm fan-out reuse channel
// scratch, so the steady-state message path allocates nothing. A
// delivery is in one place at a time: its queue's ready ring, its
// consumer's pending ring, or its channel's outbound core once issued. A
// channel close puts every delivery it holds, unsettled or not yet taken,
// back at the head of its queue in delivery order before
// channel.close-ok is written.
//
// Retention contract: broker embedders must balance Retain/Release on
// managed messages (Message.Body is invalid after the final release).
// Client applications must not hold a manual-ack amqp.Delivery.Body
// past its acknowledgement — copy first to retain; autoAck deliveries,
// gets, and returns own their bodies outright. On the client one receive
// core per channel assembles each message and owns the loans of the
// current transport epoch: a reconnect abandons the bodies the
// application still holds to the garbage collector, and their acks, which
// name tags of the dead transport, are dropped. Publishing.Body is read
// during Publish and never after it returns, so a producer may reuse its
// buffer at once — except on a confirm-mode channel of a reconnecting
// connection, where the unconfirmed publish is kept for replay with the
// caller's slice and the body must stay unmodified until its confirm.
//
// # Confirm semantics
//
// A publisher confirm means enqueued — routed into every target queue
// and, on a durable queue, appended to its segment log. Confirms arrive
// batched: the broker records each verdict (ack, nack, mirror verdict)
// in the channel's publish core and writes them right before its next
// kernel read of the connection. A tag is open from its basic.publish
// until its verdict is known: while its body assembles, or while a
// federated or replicated publish waits on ClusterConfirm. Before the
// first open tag each run of like verdicts is one frame, multiple=true
// when it holds more than one; behind it verdicts go out singly. A
// bridged verdict arriving after its channel closed is dropped, and a
// basic.publish that cuts off the previous publish's content ends the
// connection. A lone publish is still answered by one plain ack in one
// write; returns, channel exceptions and -ok replies follow the verdicts
// of the publishes before them. amqp.Channel turns the mix back into
// exactly one Confirmation per publish through one confirm log per
// channel, reconnecting or not: a publish is tagged when its frames are
// appended to the send buffer, so tags follow wire order, and a
// reconnect's replay renumbers the unresolved publishes 1..k for the new
// transport and republishes them in sequence order. A reconnect policy
// only makes the log keep each publish until its verdict.
// The rest of what a new transport must re-establish is one replay record
// per channel: confirm mode, the prefetch in force, and the consumers in
// subscription order. A reconnect re-applies confirm mode, then each
// consumer under the prefetch it subscribed with, then the prefetch in
// force.
//
// Publish semantics: an amqp.Connection has one send buffer that every
// write goes through, so wire order is call order. A publish whose body
// is under 64 KiB (copied, so Publishing.Body is still never read after
// Publish returns; from 64 KiB up the body is borrowed and written before
// Publish returns) is appended and Publish returns, starting a flush
// goroutine if none is scheduled; every other write — RPCs, acks,
// heartbeats, Close, a publish that borrows its body — and the publish
// that takes the buffer to 64 KiB flush what is pending inline. Publish
// returning nil therefore means accepted by the connection: written, or
// queued behind at most 64 KiB for the flush that is already scheduled.
// A dead socket surfaces on the next inline write, NotifyClose, ErrClosed
// or the closed confirm channel, the same class of loss as bytes the
// kernel had accepted; a confirm remains the only delivery guarantee,
// and a process must Close before exiting. No timer, nothing to tune.
//
// # Durability model
//
// Durable storage is opt-in and per-queue: with broker.Config.DataDir
// set (rmq-server -data-dir, or a durability block in a scenario
// spec's deployment), each durable-declared queue is backed by an
// append-only CRC-framed segment log (internal/broker/seglog).
// Publishes append data records — properties reuse the AMQP
// content-header encoding, bodies spill zero-copy from the wire-loan
// buffer — and acks append retirement records; fully-acked head
// segments are compacted unless retain_all keeps them for replay. The
// fsync policy (never, interval, always) picks the durability/latency
// trade-off; always upgrades publisher confirms to confirm-implies-
// durable.
//
// Recovery on restart truncates a torn tail to the longest intact
// record prefix and requeues everything unacked (redelivered=true):
// with fsync always, confirmed messages survive a hard kill and
// settled ones never resurrect, while delivery stays at-least-once —
// in-flight unacked messages are redelivered as duplicates. Consumers
// passing the x-stream-offset consume argument replay retained history
// from any offset and then follow the live tail (the cold-replay
// pattern). The broker-restart scenario fault hard-kills every node
// mid-run and restarts them on the same addresses; reconnecting
// clients ride it out with zero acked-message loss.
//
// # Client runtime & scaling
//
// Fleet-scale runs (10⁴–10⁵ logical clients) ride a multiplexed client
// runtime: amqp.ClientPool owns a few physical connections and hands
// out Session handles mapped onto channels (least-loaded placement,
// soft SessionsPerConn target, hard cap at the negotiated channel-max),
// consumers are callbacks dispatched from the connection's one owner
// goroutine (zero goroutines when idle; Consume is a channel adapter over
// the same path). The owner is the only frame reader and the only closer
// of what the library sends on: an undrained listener stalls its
// connection until Close, which then closes it, and Close and Cancel
// block until the owner is done, so they are never called from a
// ConsumeFunc handler. A physical-connection flap resumes every session
// mapped onto it — consumers, each under its own prefetch, and
// unconfirmed publishes replay — without touching sessions on sibling
// connections. The pattern engine runs every role
// instance on such a session; Tuning.GoroutineBudget bounds it. At 0 it
// is unbounded, one socket per role instance and one goroutine per
// producer; with a budget, roles multiplex over a bounded worker set and the
// deployment's total goroutine count stays under the budget (asserted
// in TestClientScaleGoroutineBudget; BenchmarkClientScale tracks ns/op
// per delivered message and bytes/client up to 100k).
// Entry points: `streamsim scenario -clients N`, `expdriver -fig
// scale`, and scenario.Sweep's WithParallel option for concurrent grid
// cells.
//
// # Cluster model
//
// A clustered deployment (scenario: deployment.cluster_nodes ≥ 2) runs
// the broker as N nodes behind one data plane (internal/cluster). Queue
// placement is a consistent-hash ring over virtual nodes — deterministic
// for a given member set, topology-versioned on every join and leave —
// and a metadata directory any node can answer maps a queue name to its
// current master. A client talking to the wrong node is handled two
// ways: publishes are forwarded to the master over an inter-node
// federation link (an internal/amqp connection in confirm mode with
// bounded handshakes; bodies of 64 KiB and up cross it zero-copy as
// borrowed refcounted buffers, smaller ones are copied into the send
// buffer, and the master's ack is bridged back to the origin producer),
// while consumes redirect the whole connection — the broker answers
// connection.close 302 with the master's address, and
// amqp.Config.Reconnect re-dials it and replays channel state there. Config.Seeds gives clients the full node list so
// a dead dial target rotates instead of dead-ending.
//
// Failover, in sequence: a queue-master dies → the ring drops the node
// (version bump) and every queue it mastered is reassigned to surviving
// nodes → the new master recovers each durable queue from its segment
// log (confirm-implies-durable under fsync always; transient queues
// restart empty) → displaced clients reconnect via seeds, land anywhere,
// and are redirected or federated to the new master. Nothing confirmed
// is lost; delivery stays at-least-once. The node-kill scenario fault
// scripts exactly this (examples/scenario/failover.json,
// TestClusterFailoverScenario), and cluster.* telemetry probes
// (federation_msgs/bytes/links, redirects, ownership_changes) make the
// rebalance observable; BenchmarkFederationForward pins the forward
// path at 0 allocs/op.
//
// With deployment.replication_factor R ≥ 2, each durable queue
// additionally keeps R−1 synchronous mirrors on distinct ring nodes:
// the master streams every publish and settle to its mirrors over
// confirm-mode federation links; a mirror gates producer confirms from
// the end of its catch-up scan, and a lagging one is let off after a
// bounded window (those confirms then certify the master's disk alone).
// Killing a replicated master promotes an in-sync mirror in place —
// nothing read from the dead node's disk — and only a mirror whose
// replica holds every offset confirmed and not settled; with none, the
// queue relocates as an unreplicated one does. Each queue's protocol is
// one pure core (internal/cluster/mirrorset.go). A restarted node
// re-enters as a catching-up mirror. The rolling-node-kill fault chases
// the promoted masters (examples/scenario/failover_replicated.json,
// TestRollingNodeKillScenario); cluster.promotions, mirror_catchups,
// mirror_lag, insync_mirrors and underreplicated_queues trace it, and
// BenchmarkMirroredPublishDeliver prices the confirm path at R=1 vs R=2.
//
// # Running the suite
//
// Tier-1 verification is `go build ./... && go test ./...`; CI runs
// -race over the whole module as a dedicated job (the telemetry probes
// are deliberately lock-free hot-path code), then `make stress`
// (-race -count=5 on broker, client and cluster at GOMAXPROCS 1 and 2),
// and gives each wire fuzz target a few seconds (`make fuzz`).
// Reproduce a paper figure by running its benchmark, e.g.
//
//	go test -bench BenchmarkFig4aDstreamWorkSharing -benchmem .
//
// See README.md for the figure-to-benchmark map.
package ds2hpc
