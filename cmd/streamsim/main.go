// Command streamsim is the Golang streaming simulator of the paper's §5.2.
// It runs in three modes:
//
//   - scenario: execute a declarative scenario spec from a JSON file — the
//     whole data point (deployment, workload, pattern, client counts,
//     tuning, fault script, runs) in one document. See internal/scenario
//     and examples/scenario for the spec format.
//
//   - distributed: a `coordinator` role assigns queues to remote `producer`
//     and `consumer` processes (which may run on other hosts against a
//     shared broker started with rmq-server) and aggregates their metrics,
//     matching the coordinator component described in the paper.
//
//   - telemetry-sink: a standalone off-box telemetry collector. A scenario
//     run on another host (or process) ships its rollups, health
//     transitions, and final snapshot to it with `scenario -forward`.
//
// Examples:
//
//	streamsim scenario examples/scenario/worksharing.json
//	streamsim telemetry-sink -addr 127.0.0.1:9191 &
//	streamsim scenario -watch -forward 127.0.0.1:9191 examples/scenario/worksharing.json
//	streamsim coordinator -participants 4 -endpoint amqp://127.0.0.1:5672 -msgs 100
//	streamsim producer -coord 127.0.0.1:9000 -id 0
//	streamsim consumer -coord 127.0.0.1:9000 -id 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/scenario"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/telemetry/forwarder"
	"ds2hpc/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "scenario":
		err = runScenario(os.Args[2:])
	case "coordinator":
		err = runCoordinator(os.Args[2:])
	case "producer":
		err = runParticipant(os.Args[2:], "producer")
	case "consumer":
		err = runParticipant(os.Args[2:], "consumer")
	case "telemetry-sink":
		err = runTelemetrySink(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		die(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: streamsim {scenario|coordinator|producer|consumer|telemetry-sink} [flags]")
	os.Exit(2)
}

// runScenario executes a declarative scenario spec from a JSON file.
func runScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	watch := fs.Bool("watch", false, "print live per-second telemetry rollups and health transitions while the scenario runs")
	clients := fs.Int("clients", 0, "override total client count (split across producers and consumers) without editing the spec")
	telemetryAddr := fs.String("telemetry", "", "serve /metrics and /snapshot.json on this address while the scenario runs (e.g. 127.0.0.1:9090)")
	forward := fs.String("forward", "", "ship telemetry (rollups, health transitions, final snapshot) to an off-box collector at this address, e.g. 127.0.0.1:9191 or http://host:9191/ingest (see `streamsim telemetry-sink`)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: streamsim scenario [-watch] [-clients n] [-telemetry addr] [-forward addr] <spec.json>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("scenario: exactly one spec file required")
	}
	spec, err := scenario.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *clients != 0 {
		if err := applyClientsOverride(&spec, *clients); err != nil {
			return err
		}
		fmt.Printf("clients:        %d (-clients override: %d producers, %d consumers)\n",
			*clients, spec.Producers, spec.Consumers)
	}
	stop, err := serveTelemetry(*telemetryAddr)
	if err != nil {
		return err
	}
	defer stop()
	var opts []scenario.Option
	if *watch {
		opts = append(opts, scenario.WithWatch(printRollup))
		opts = append(opts, scenario.WithHealthWatch(func(e telemetry.HealthEvent) {
			fmt.Printf("health %s  %s\n", e.T.Format("15:04:05"), e)
		}))
	}
	var fw *forwarder.Forwarder
	if *forward != "" {
		sink := forwarder.NewHTTPSink(forwardURL(*forward))
		defer sink.Close()
		fw = forwarder.New(forwarder.Config{Sink: sink})
		opts = append(opts, scenario.WithForwarder(fw))
	}
	rep, err := scenario.Run(context.Background(), spec, opts...)
	if fw != nil {
		fw.Stop() // flush the tail even when the run failed
		st := fw.Stats()
		fmt.Printf("forwarded:      %d payload(s), %d bytes to %s (%d retried, %d dropped)\n",
			st.Sent, st.SentBytes, *forward, st.Retried, st.Dropped)
	}
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

// forwardURL turns a bare host:port into the collector ingest URL;
// explicit http(s) URLs pass through.
func forwardURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return addr
	}
	return "http://" + addr + "/ingest"
}

// applyClientsOverride rescales a spec's role counts to n total clients:
// an even producer/consumer split, except single-producer patterns
// (broadcast/gather) which keep one producer and give the rest to
// consumers. The rewritten spec is re-validated so an override can never
// smuggle in counts the spec format forbids.
func applyClientsOverride(spec *scenario.Spec, n int) error {
	if n < 2 {
		return fmt.Errorf("scenario: -clients %d: need at least 2 (one producer, one consumer)", n)
	}
	single := false
	if g, ok := pattern.Lookup(spec.Pattern); ok {
		single = g.SingleProducer
	}
	if single {
		spec.Producers = 1
		spec.Consumers = n - 1
	} else {
		spec.Producers = n / 2
		spec.Consumers = n - n/2
	}
	return spec.Validate()
}

// serveTelemetry optionally exposes the process-wide telemetry registry
// over HTTP for the duration of the command; the returned stop function
// is always safe to call.
func serveTelemetry(addr string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, err := telemetry.Serve(addr, telemetry.Default)
	if err != nil {
		return nil, fmt.Errorf("telemetry endpoint: %w", err)
	}
	fmt.Printf("telemetry:      http://%s/metrics (and /snapshot.json)\n", srv.Addr())
	return func() {
		// Graceful first: let an in-flight final scrape finish, then
		// hard-close whatever remains.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}, nil
}

// printRollup writes one live per-second telemetry line.
func printRollup(tk telemetry.Tick) {
	line := fmt.Sprintf("watch %s  consumed %7.1f/s  produced %7.1f/s  errors %.0f",
		tk.T.Format("15:04:05"), tk.Values["consumed"], tk.Values["produced"], tk.Values["errors"])
	if v, ok := tk.Values["flaps"]; ok {
		line += fmt.Sprintf("  flaps %.0f  resets %.0f", v, tk.Values["resets"])
	}
	if v := tk.Values["reconnects"]; v > 0 {
		line += fmt.Sprintf("  reconnects %.0f", v)
	}
	if v := tk.Values["redirects"]; v > 0 {
		line += fmt.Sprintf("  redirects %.0f", v)
	}
	if v := tk.Values["federated"]; v > 0 {
		line += fmt.Sprintf("  federated %.0f", v)
	}
	if v := tk.Values["sessions"]; v > 0 {
		line += fmt.Sprintf("  sessions %.0f/%.0f conns", v, tk.Values["conns"])
	}
	if v, ok := tk.Values["goroutines"]; ok {
		line += fmt.Sprintf("  goroutines %.0f", v)
	}
	fmt.Println(line)
}

// printReport writes the human-readable result of one scenario.
func printReport(rep *scenario.Report) {
	spec := rep.Spec
	if spec.Name != "" {
		fmt.Printf("scenario:       %s\n", spec.Name)
	}
	fmt.Printf("architecture:   %s\n", spec.Deployment.Architecture)
	if n := spec.Deployment.ClusterNodes; n > 0 {
		placement := spec.Deployment.Placement
		if placement == "" {
			placement = "ring"
		}
		fmt.Printf("cluster:        nodes=%d placement=%s\n", n, placement)
	}
	fmt.Printf("workload:       %s\n", spec.Workload.Name)
	fmt.Printf("pattern:        %s\n", spec.Pattern)
	if rep.Infeasible {
		fmt.Printf("infeasible:     %s with %d producers (tunnel connection limit)\n",
			spec.Deployment.Architecture, spec.Producers)
		return
	}
	r := rep.Result
	fmt.Printf("consumed:       %d msgs over %d run(s)\n", r.Consumed, max(spec.Runs, 1))
	fmt.Printf("throughput:     %.1f msgs/sec (aggregate)\n", r.Throughput)
	if r.RTTCount() > 0 {
		fmt.Printf("median RTT:     %v\n", r.MedianRTT())
		fmt.Printf("p80 / p95 RTT:  %v / %v\n", r.PercentileRTT(80), r.PercentileRTT(95))
	}
	if r.Errors > 0 {
		fmt.Printf("backpressure:   %d rejected publishes retried\n", r.Errors)
	}
	if rep.P50 > 0 {
		fmt.Printf("p50/p95/p99:    %v / %v / %v\n", rep.P50, rep.P95, rep.P99)
	}
	if n := len(rep.Timeline); n > 0 {
		peak := rep.Timeline[0].V
		for _, p := range rep.Timeline {
			if p.V > peak {
				peak = p.V
			}
		}
		fmt.Printf("timeline:       %d point(s), peak %.1f msgs/sec\n", n, peak)
	}
	if len(spec.Faults) > 0 {
		fmt.Printf("faults:         %d flaps, %d resets, %d refused dials\n",
			rep.Faults.Flaps, rep.Faults.Resets, rep.Faults.Refused)
	}
	if rep.BrokerRestarts > 0 {
		fmt.Printf("broker kills:   %d hard restart(s) survived, durable queues replayed\n",
			rep.BrokerRestarts)
	}
	if rep.NodeKills > 0 {
		fmt.Printf("node kills:     %d queue-master(s) failed over\n", rep.NodeKills)
	}
	if rep.Promotions > 0 || rep.MirrorCatchups > 0 {
		fmt.Printf("replication:    %d mirror promotion(s), %d mirror catchup(s)\n",
			rep.Promotions, rep.MirrorCatchups)
	}
	if rep.Redirects > 0 || rep.FederatedMsgs > 0 {
		fmt.Printf("cluster plane:  %d redirect(s) followed, %d federated publish(es)\n",
			rep.Redirects, rep.FederatedMsgs)
	}
	if n := len(rep.HealthEvents); n > 0 {
		fmt.Printf("health:         %d transition(s)\n", n)
		for _, e := range rep.HealthEvents {
			fmt.Printf("  %s  %s\n", e.T.Format("15:04:05"), e)
		}
	}
}

func runCoordinator(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "coordinator listen address")
	participants := fs.Int("participants", 2, "number of producers+consumers to expect")
	endpoint := fs.String("endpoint", "amqp://127.0.0.1:5672", "broker URL participants should use")
	msgs := fs.Int("msgs", 100, "messages per producer")
	queues := fs.Int("queues", 2, "shared work queues")
	timeout := fs.Duration("timeout", 10*time.Minute, "experiment deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	coord, err := NewCoordinator(*addr, *participants, func(h HelloMsg) AssignMsg {
		return AssignMsg{
			Queue:    fmt.Sprintf("ws-q-%d", h.ID%*queues),
			Endpoint: *endpoint,
			Messages: *msgs,
		}
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	// Participants legitimately stay silent between hello and report for
	// as long as the experiment runs; the per-participant read deadline
	// must cover the whole deadline, not its 60s default.
	coord.SetReadTimeout(*timeout)
	fmt.Printf("coordinator listening on %s (expecting %d participants)\n",
		coord.Addr(), *participants)
	res, err := coord.Wait(*timeout)
	if err != nil {
		return err
	}
	fmt.Printf("aggregate: %s\n", res)
	return nil
}

func runParticipant(args []string, role string) error {
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	coord := fs.String("coord", "", "coordinator address")
	id := fs.Int("id", 0, "participant id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		fs.Usage()
		return fmt.Errorf("%s: -coord is required", role)
	}
	p, assign, err := Join(*coord, HelloMsg{Role: role, ID: *id})
	if err != nil {
		return err
	}
	conn, err := amqp.Dial(assign.Endpoint)
	if err != nil {
		return err
	}
	defer conn.Close()
	ch, err := conn.Channel()
	if err != nil {
		return err
	}
	if _, err := ch.QueueDeclare(assign.Queue, true, false, false, false, nil); err != nil {
		return err
	}

	report := ReportMsg{Role: role, ID: *id}
	switch role {
	case "producer":
		gen := workload.NewGenerator(workload.Dstream, *id)
		for seq := 0; seq < assign.Messages; seq++ {
			body, err := gen.Payload(uint64(seq))
			if err != nil {
				return err
			}
			if err := ch.Publish("", assign.Queue, false, false, amqp.Publishing{
				Timestamp: uint64(time.Now().UnixNano()),
				Body:      body,
			}); err != nil {
				return err
			}
			report.Count++
		}
		// The report below says "published": make it true first. Closing
		// the channel is a round trip behind every publish, so the broker
		// has routed them all — a small publish is only queued for the
		// connection's next write when Publish returns.
		if err := ch.Close(); err != nil {
			return err
		}
	case "consumer":
		if err := ch.Qos(8, 0, false); err != nil {
			return err
		}
		deliveries, err := ch.Consume(assign.Queue, "", false, false, false, false, nil)
		if err != nil {
			return err
		}
		for report.Count < int64(assign.Messages) {
			select {
			case d := <-deliveries:
				if d.Timestamp > 0 {
					report.RTTNanos = append(report.RTTNanos,
						time.Now().UnixNano()-int64(d.Timestamp))
				}
				d.Ack(false)
				report.Count++
			case <-time.After(time.Minute):
				fmt.Fprintf(os.Stderr, "%s %d: timed out at %d/%d\n",
					role, *id, report.Count, assign.Messages)
				report.Errors++
				goto done
			}
		}
	}
done:
	if err := p.Report(report); err != nil {
		return err
	}
	fmt.Printf("%s %d: done (%d messages)\n", role, *id, report.Count)
	return nil
}

// runTelemetrySink is the off-box collector: it accepts forwarder
// frames POSTed to /ingest, prints one line per payload, and optionally
// appends the raw frames to a file for offline decoding. With -n it
// exits after that many payloads (smoke tests); otherwise it serves
// until killed.
func runTelemetrySink(args []string) error {
	fs := flag.NewFlagSet("telemetry-sink", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9191", "collector listen address")
	out := fs.String("out", "", "append received frames to this file (decodable with the forwarder frame format)")
	count := fs.Int("n", 0, "exit after receiving this many payloads (0 = serve forever)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: streamsim telemetry-sink [-addr host:port] [-out frames.dstl] [-n count]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var file *forwarder.FileSink
	if *out != "" {
		var err error
		if file, err = forwarder.NewFileSink(*out); err != nil {
			return err
		}
		defer file.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	received := make(chan struct{}, 1)
	var total atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		// One frame per POST body, the way HTTPSink ships them.
		body, err := forwarder.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p, err := forwarder.Decode(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if file != nil {
			if err := file.Send(forwarder.EncodeFrame(body)); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		printPayload(p)
		w.WriteHeader(http.StatusNoContent)
		if n := total.Add(1); *count > 0 && n >= int64(*count) {
			select {
			case received <- struct{}{}:
			default:
			}
		}
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("telemetry-sink: listening on http://%s/ingest\n", ln.Addr())
	if *count > 0 {
		<-received
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		fmt.Printf("telemetry-sink: %d payload(s) received, exiting\n", total.Load())
		return nil
	}
	select {} // serve until killed
}

// printPayload writes one line per collected payload.
func printPayload(p forwarder.Payload) {
	switch p.Kind {
	case forwarder.KindTick:
		fmt.Printf("tick     seq=%d %s consumed=%.1f/s produced=%.1f/s sources=%d\n",
			p.Seq, p.T.Format("15:04:05"), p.Values["consumed"], p.Values["produced"], len(p.Values))
	case forwarder.KindHealth:
		if p.Health != nil {
			fmt.Printf("health   seq=%d %s %s %s→%s (%s=%.1f)\n",
				p.Seq, p.T.Format("15:04:05"), p.Health.Rule,
				p.Health.FromState, p.Health.ToState, p.Health.Source, p.Health.Value)
		}
	case forwarder.KindSnapshot:
		var counters, gauges int
		if p.Snapshot != nil {
			counters, gauges = len(p.Snapshot.Counters), len(p.Snapshot.Gauges)
		}
		fmt.Printf("snapshot seq=%d %s %d counter(s), %d gauge(s)\n",
			p.Seq, p.T.Format("15:04:05"), counters, gauges)
	default:
		fmt.Printf("payload  seq=%d kind=%q\n", p.Seq, p.Kind)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "streamsim:", err)
	os.Exit(1)
}
