package pattern

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/core"
	"ds2hpc/internal/fabric"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/workload"
)

// fastOptions deploys small, fast architectures for pattern tests.
func fastOptions() core.Options {
	p := fabric.ACE(0.2) // 200 Mbps DSN links
	p.LBSetupCost = 0
	p.RouteLookupLatency = 0
	return core.Options{Nodes: 3, Profile: p, DisableClientShaping: true}
}

// smallWorkload is Dstream with a shrunken payload for fast tests.
func smallWorkload() workload.Workload {
	w := workload.Dstream
	w.PayloadBytes = 2048
	return w
}

func deployDTS(t *testing.T) core.Deployment {
	t.Helper()
	d, err := core.Deploy(core.DTS, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestWorkSharingDelivery(t *testing.T) {
	d := deployDTS(t)
	res, err := Run(context.Background(), WorkSharingName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           2,
		Consumers:           4,
		MessagesPerProducer: 20,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 40 {
		t.Fatalf("consumed %d, want 40", res.Consumed)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestWorkSharingMPIWorkload(t *testing.T) {
	d := deployDTS(t)
	w := workload.Lstream
	w.PayloadBytes = 16 * 1024 // shrink the 1 MiB payload for the test
	res, err := Run(context.Background(), WorkSharingName, Config{
		Deployment:          d,
		Workload:            w,
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 6,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 12 {
		t.Fatalf("consumed %d", res.Consumed)
	}
}

func TestWorkSharingInfeasibleOnStunnel(t *testing.T) {
	d, err := core.Deploy(core.PRSStunnel, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	_, err = Run(context.Background(), WorkSharingName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           32, // beyond the 16-stream Stunnel cap
		Consumers:           32,
		MessagesPerProducer: 1,
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestWorkSharingFeedbackRTTs(t *testing.T) {
	d := deployDTS(t)
	res, err := Run(context.Background(), FeedbackName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 15,
		Window:              4,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTTCount() != 30 {
		t.Fatalf("RTT samples = %d, want 30", res.RTTCount())
	}
	if res.MedianRTT() <= 0 {
		t.Fatal("median RTT must be positive")
	}
	if res.PercentileRTT(99) < res.MedianRTT() {
		t.Fatal("p99 < median")
	}
}

func TestBroadcastAllConsumersReceive(t *testing.T) {
	d := deployDTS(t)
	w := workload.Generic
	w.PayloadBytes = 8 * 1024
	res, err := Run(context.Background(), BroadcastName, Config{
		Deployment:          d,
		Workload:            w,
		Consumers:           3,
		MessagesPerProducer: 10,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 30 {
		t.Fatalf("consumed %d, want 10 msgs x 3 consumers", res.Consumed)
	}
}

func TestBroadcastGatherRepliesAndRTTs(t *testing.T) {
	d := deployDTS(t)
	w := workload.Generic
	w.PayloadBytes = 8 * 1024
	res, err := Run(context.Background(), BroadcastGatherName, Config{
		Deployment:          d,
		Workload:            w,
		Consumers:           3,
		MessagesPerProducer: 8,
		Window:              2,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTTCount() != 24 {
		t.Fatalf("RTT samples = %d, want 24", res.RTTCount())
	}
}

// TestPipelineFanIn covers the multi-stage pattern the role engine
// enables: every edge message must traverse the filter tier and land at
// the single aggregator, so consumed counts both stages.
func TestPipelineFanIn(t *testing.T) {
	d := deployDTS(t)
	res, err := Run(context.Background(), PipelineName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           2,
		Consumers:           3, // filter tier size; the aggregator is a fixed single instance
		MessagesPerProducer: 12,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2x12 deliveries at the filters plus the same again at the aggregator.
	if want := int64(2 * 12 * 2); res.Consumed != want {
		t.Fatalf("consumed %d, want %d", res.Consumed, want)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput recorded")
	}
}

func TestFeedbackThroughPRS(t *testing.T) {
	d, err := core.Deploy(core.PRSHAProxy, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := Run(context.Background(), FeedbackName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 8,
		Window:              2,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTTCount() != 16 {
		t.Fatalf("RTTs = %d", res.RTTCount())
	}
}

func TestWorkSharingThroughMSS(t *testing.T) {
	d, err := core.Deploy(core.MSS, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, err := Run(context.Background(), WorkSharingName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 10,
		Timeout:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 20 {
		t.Fatalf("consumed %d", res.Consumed)
	}
}

// TestBudgetedRunPerArchitecture pins the pool key: under a budget, role
// sessions share a connection only when their endpoints dial the same
// destination. MSS gives every broker pod the same URL and picks the pod
// by SNI, so a pool keyed by URL alone carried other queues' sessions to
// the wrong pod and the broker refused their consumers.
func TestBudgetedRunPerArchitecture(t *testing.T) {
	for _, arch := range []core.ArchitectureName{core.DTS, core.PRSHAProxy, core.MSS} {
		t.Run(string(arch), func(t *testing.T) {
			d, err := core.Deploy(arch, fastOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := Run(context.Background(), WorkSharingName, Config{
				Deployment:          d,
				Workload:            smallWorkload(),
				Producers:           2,
				Consumers:           2,
				MessagesPerProducer: 10,
				GoroutineBudget:     64,
				Timeout:             30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Consumed != 20 {
				t.Fatalf("consumed %d, want 20", res.Consumed)
			}
		})
	}
}

// faultyConsumers routes consumer endpoints (only) through a fault
// injector, with the given reconnect policy.
type faultyConsumers struct {
	core.Deployment
	inj       *transport.Injector
	reconnect *amqp.ReconnectPolicy
}

func (d faultyConsumers) ConsumerEndpoint(queue string) core.Endpoint {
	e := d.Deployment.ConsumerEndpoint(queue)
	e.Path = append(transport.Path{d.inj.Hop()}, e.Path...)
	e.Reconnect = d.reconnect
	return e
}

// TestConsumerDeathFailsRunPromptly cuts every consumer's connection
// mid-run. Without a reconnect policy the run must fail well before its
// deadline and name a dead consumer instance; with one, the consumers
// resume and the run completes.
func TestConsumerDeathFailsRunPromptly(t *testing.T) {
	const producers, messages = 2, 200
	for _, tc := range []struct {
		name      string
		reconnect *amqp.ReconnectPolicy
	}{
		{"no-reconnect", nil},
		{"reconnect", &amqp.ReconnectPolicy{MaxAttempts: 60, Delay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := transport.NewInjector()
			d := faultyConsumers{Deployment: deployDTS(t), inj: inj, reconnect: tc.reconnect}
			inj.FlapAfterBytes(64<<10, 20*time.Millisecond)
			const timeout = 8 * time.Second
			start := time.Now()
			res, err := Run(context.Background(), WorkSharingName, Config{
				Deployment:          d,
				Workload:            smallWorkload(),
				Producers:           producers,
				Consumers:           2,
				MessagesPerProducer: messages,
				Timeout:             timeout,
			})
			elapsed := time.Since(start)
			if inj.Stats().Flaps == 0 {
				t.Fatal("the armed flap never fired")
			}
			if tc.reconnect != nil {
				if err != nil {
					t.Fatalf("resumed consumers failed the run: %v", err)
				}
				if res.Consumed < producers*messages {
					t.Fatalf("consumed %d < %d", res.Consumed, producers*messages)
				}
				return
			}
			if err == nil {
				t.Fatal("run with dead consumers succeeded")
			}
			if !strings.Contains(err.Error(), "cons 0") && !strings.Contains(err.Error(), "cons 1") {
				t.Fatalf("error does not name the dead consumer: %v", err)
			}
			if elapsed > timeout/4 {
				t.Fatalf("failure took %v of the %v timeout: %v", elapsed, timeout, err)
			}
		})
	}
}

// TestClientLinkPerRoleInstance pins the shaped client path of an
// unbounded run: every role instance dials through a client NIC link of
// its own. Four producers publishing to one queue — one node, one dial
// destination — must finish in about the time one does; four producers
// sharing one link would take four times as long. The links are slow
// enough that the run stays link-bound under the race detector on one
// core.
func TestClientLinkPerRoleInstance(t *testing.T) {
	// 250 kB/s client NICs; nothing else is shaped.
	p := fabric.Profile{Scale: 1, ClientRateBps: 2e6, LBWorkers: 16}
	d, err := core.Deploy(core.DTS, core.Options{Nodes: 3, Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := smallWorkload()
	w.PayloadBytes = 16 << 10
	const messages = 4 // 64 KiB per producer: ~0.26 s on its own link
	run := func(producers int) time.Duration {
		start := time.Now()
		res, err := Run(context.Background(), WorkSharingName, Config{
			Deployment:          d,
			Workload:            w,
			Producers:           producers,
			Consumers:           1,
			MessagesPerProducer: messages,
			WorkQueues:          1,
			Timeout:             30 * time.Second,
		})
		if err != nil {
			t.Fatalf("%d producers: %v", producers, err)
		}
		if want := int64(producers * messages); res.Consumed != want {
			t.Fatalf("%d producers: consumed %d, want %d", producers, res.Consumed, want)
		}
		return time.Since(start)
	}
	one, four := run(1), run(4)
	if 2*four > 5*one {
		t.Fatalf("4 producers took %v, 1 took %v: the producers share a client link", four, one)
	}
}

// TestCloseWatchSpansBlocks runs the consumer close watch past
// reflect.Select's case limit (shrunk here): instances are watched in
// blocks, and a channel closing in a later block — attached at launch or
// after it — still fails the run, naming the instance.
func TestCloseWatchSpansBlocks(t *testing.T) {
	defer func(n int) { watchCases = n }(watchCases)
	watchCases = 2
	for _, victim := range []int{2, 3, 4} {
		ctx, fail := context.WithCancelCause(context.Background())
		f := &consumerFleet{fail: fail}
		f.ctx, f.cancel = context.WithCancel(ctx)
		closes := make([]chan *amqp.Error, 5)
		attach := func(k int) {
			closes[k] = make(chan *amqp.Error, 1)
			f.mu.Lock()
			f.cores = append(f.cores, &consumerCore{name: fmt.Sprintf("cons %d", k)})
			f.closes = append(f.closes, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(closes[k])})
			f.mu.Unlock()
		}
		for k := 0; k < 3; k++ {
			attach(k)
		}
		f.rewatch()
		for k := 3; k < 5; k++ { // deferred attaches
			attach(k)
			f.rewatch()
		}
		if len(f.kicks) != 3 {
			t.Fatalf("%d watches for 5 instances in blocks of 2, want 3", len(f.kicks))
		}
		closes[victim] <- &amqp.Error{Code: 404, Reason: "gone"}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("cons %d closed and the run was not failed", victim)
		}
		want := fmt.Sprintf("cons %d: channel closed", victim)
		if err := context.Cause(ctx); !strings.Contains(err.Error(), want) {
			t.Fatalf("cause %q does not name %q", err, want)
		}
		f.stop()
		fail(nil)
	}
}

func TestRunUnknownPattern(t *testing.T) {
	d := deployDTS(t)
	_, err := Run(context.Background(), "no-such-pattern", Config{Deployment: d})
	if err == nil {
		t.Fatal("unknown pattern must error")
	}
}

// TestRunHonorsContextCancel pins the ctx plumbing: a cancelled context
// must abort a run promptly with ctx's error instead of hanging until
// Config.Timeout.
func TestRunHonorsContextCancel(t *testing.T) {
	d := deployDTS(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, WorkSharingName, Config{
		Deployment:          d,
		Workload:            smallWorkload(),
		Producers:           2,
		Consumers:           2,
		MessagesPerProducer: 1 << 20, // would take far longer than the test allows
		Timeout:             120 * time.Second,
	})
	if err == nil {
		t.Fatal("cancelled run must error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRegisteredNames(t *testing.T) {
	want := []string{BroadcastName, BroadcastGatherName, PipelineName, WorkSharingName, FeedbackName}
	names := Names()
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("pattern %q not registered (have %v)", w, names)
		}
	}
}

// TestEveryPatternNameHasRoleGraph keeps the exported pattern names and the
// registry in lockstep: each name resolves to a role graph that carries
// the same name, so a Spec can never name a pattern the engine cannot run.
func TestEveryPatternNameHasRoleGraph(t *testing.T) {
	for _, name := range []string{BroadcastName, BroadcastGatherName, PipelineName, WorkSharingName, FeedbackName} {
		t.Run(name, func(t *testing.T) {
			g, ok := Lookup(name)
			if !ok {
				t.Fatalf("pattern %q has no registered role graph (registered: %v)", name, Names())
			}
			if g.Name != name {
				t.Fatalf("graph name %q != pattern name %q", g.Name, name)
			}
		})
	}
}

func TestNameOnSameNode(t *testing.T) {
	d := deployDTS(t)
	cl := d.Cluster()
	ref := "ws-q-0"
	name := nameOnSameNode(d, "reply-7", ref)
	if cl.OwnerOf(name) != cl.OwnerOf(ref) {
		t.Fatalf("%s not co-located with %s", name, ref)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if err := c.defaults(); err == nil {
		t.Fatal("nil deployment must be rejected")
	}
	d := deployDTS(t)
	c = Config{Deployment: d}
	if err := c.defaults(); err != nil {
		t.Fatal(err)
	}
	if c.WorkQueues != 2 || c.Prefetch != 8 || c.AckBatch != 4 || c.Window != 8 {
		t.Fatalf("defaults: %+v", c)
	}
}
