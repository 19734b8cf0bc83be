package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/cluster"
	"ds2hpc/internal/core"
	"ds2hpc/internal/mss"
	"ds2hpc/internal/netem"
	"ds2hpc/internal/pattern"
	"ds2hpc/internal/scistream"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/tlsutil"
	"ds2hpc/internal/transport"
	"ds2hpc/internal/wire"
	workloadpkg "ds2hpc/internal/workload"
)

// The ladder prices each layer from outside, two ways. Direct calls time
// a layer's public functions in a loop (wire, broker, seglog, workload).
// Rungs run the ws_small / ws_bulk loop over hand-built paths that add
// one layer to a floor (amqp client <-> broker.Listen over plain
// loopback); a rung's cost is its CPU per message minus the floor's. The
// three architectures run the same loop, and what their CPU per message
// exceeds floor + rungs by is reported as unexplained, not hidden.

// ladderSizes are the two body sizes rungs run at: per-message cost
// dominates the first, per-byte cost the second.
var ladderSizes = []struct {
	suffix   string
	bodySize int
	pool     int
	n, w     int
}{
	{"_1k", 1 << 10, 1024, 6000, 64},
	{"_1m", 1 << 20, 32, 48, 16},
}

// ladderTrials is how many trials each direct call and rung gets.
const ladderTrials = 5

// ladder runs every direct-call measurement and every rung.
func (r *run) ladder(rep *report, f float64) error {
	defer r.removeData()
	var tl tally
	if err := r.ladderInto(rep, &tl, f); err != nil {
		return err
	}
	return r.finish(rep, &tl)
}

func (r *run) ladderInto(rep *report, tl *tally, f float64) error {
	if f > 1 {
		f = 1
	}
	r.microWire(rep, f)
	if err := r.microBroker(rep, f); err != nil {
		return err
	}
	if err := r.microSeglog(rep, f); err != nil {
		return err
	}
	if err := r.microWorkload(rep, f); err != nil {
		return err
	}
	if err := r.microNetem(rep); err != nil {
		return err
	}
	if err := r.rungs(rep, tl, f); err != nil {
		return err
	}
	if err := r.clientLibrary(rep, tl, f); err != nil {
		return err
	}
	if err := r.patternRun(rep, f); err != nil {
		return err
	}
	return r.clusterCosts(rep, f)
}

// count scales an iteration count, keeping at least min.
func count(n int, f float64, min int) int {
	n = int(float64(n) * f)
	if n < min {
		n = min
	}
	return n
}

// timeBest runs fn (which performs n operations) ladderTrials times and
// returns the quiet-trial nanoseconds per operation.
func (r *run) timeBest(n int, fn func()) float64 {
	var per []float64
	for k := 0; k < r.trials; k++ {
		t0 := now()
		fn()
		per = append(per, float64(now()-t0)/float64(n))
	}
	return quietOf(per, false)
}

// ---- direct calls: wire

var publishMethod = &wire.BasicPublish{RoutingKey: "bench.work", Mandatory: true}

func (r *run) microWire(rep *report, f float64) {
	props := wire.Properties{DeliveryMode: 1}
	var allocs, msgs uint64
	for _, sz := range []struct {
		suffix string
		size   int
		n      int
	}{{"_1k", 1 << 10, count(20000, f, 200)}, {"_1m", 1 << 20, count(200, f, 8)}} {
		body := make([]byte, sz.size)
		w := wire.NewWriter()
		encode := func() {
			for i := 0; i < sz.n; i++ {
				frames := w.AppendContentFramesZC(1, publishMethod, &props, body, wire.DefaultFrameMax)
				if err := w.FlushFrames(io.Discard, frames); err != nil {
					panic(err) // io.Discard cannot fail
				}
			}
		}
		m0 := mallocs()
		rep.set("wire.encode_ns"+sz.suffix, r.timeBest(sz.n, encode), "ns")

		// Decode reads a pre-encoded stream of whole messages.
		per := sz.n
		if per > 256 {
			per = 256
		}
		var stream bytes.Buffer
		for i := 0; i < per; i++ {
			frames := w.AppendContentFrames(1, publishMethod, &props, body, wire.DefaultFrameMax)
			if err := w.FlushFrames(&stream, frames); err != nil {
				panic(err) // bytes.Buffer cannot fail
			}
		}
		raw := stream.Bytes()
		decode := func() {
			for done := 0; done < sz.n; done += per {
				fr := wire.NewFrameReader(bytes.NewReader(raw), wire.DefaultFrameMax)
				for {
					fm, err := fr.ReadFrame()
					if err != nil {
						break
					}
					switch fm.Type {
					case wire.FrameMethod:
						if _, err := wire.ParseMethod(fm.Payload); err != nil {
							panic(err) // our own encoding
						}
					case wire.FrameHeader:
						if _, err := wire.ParseContentHeader(fm.Payload); err != nil {
							panic(err)
						}
					}
				}
			}
		}
		rounds := (sz.n + per - 1) / per
		rep.set("wire.decode_ns"+sz.suffix, r.timeBest(rounds*per, decode), "ns")
		if sz.size == 1<<10 {
			allocs += mallocs() - m0
			msgs += uint64(r.trials * (sz.n + rounds*per))
		}
	}
	rep.set("wire.allocs_per_msg", float64(allocs)/float64(msgs), "count")
}

// ---- direct calls: broker

func (r *run) microBroker(rep *report, f float64) error {
	const batch = 64
	n := count(20000, f, 2*batch) / batch * batch
	body := make([]byte, 1<<10)
	vh := broker.NewVHost("/")
	q, err := vh.DeclareQueue("ladder.q", false, false, false, false, nil)
	if err != nil {
		return err
	}
	fan, err := vh.DeclareExchange("ladder.fan", broker.KindFanout, false)
	if err != nil {
		return err
	}
	var fanQ []*broker.Queue
	for i := 0; i < gatherParts; i++ {
		fq, err := vh.DeclareQueue(fmt.Sprintf("ladder.fan-%d", i), false, false, false, false, nil)
		if err != nil {
			return err
		}
		fan.Bind(fq, "")
		fanQ = append(fanQ, fq)
	}
	publish := func(exchange, key string) error {
		msg := broker.NewMessage(exchange, key, wire.Properties{}, len(body))
		msg.AppendBody(body)
		_, err := vh.Publish(exchange, key, msg)
		msg.Release()
		return err
	}
	drain := func(q *broker.Queue) {
		for {
			m, _, _, _, ok := q.Get()
			if !ok {
				return
			}
			m.Release()
		}
	}

	var pubNs, getNs, fanNs []float64
	m0 := mallocs()
	for k := 0; k < r.trials; k++ {
		var pub, get, fo int64
		for done := 0; done < n; done += batch {
			t0 := now()
			for i := 0; i < batch; i++ {
				if err := publish("", "ladder.q"); err != nil {
					return err
				}
			}
			t1 := now()
			drain(q)
			t2 := now()
			for i := 0; i < batch; i++ {
				if err := publish("ladder.fan", ""); err != nil {
					return err
				}
			}
			t3 := now()
			for _, fq := range fanQ {
				drain(fq)
			}
			pub, get, fo = pub+t1-t0, get+t2-t1, fo+t3-t2
		}
		pubNs = append(pubNs, float64(pub)/float64(n))
		getNs = append(getNs, float64(get)/float64(n))
		fanNs = append(fanNs, float64(fo)/float64(n))
	}
	allocs := mallocs() - m0
	rep.set("broker.publish_ns", quietOf(pubNs, false), "ns")
	rep.set("broker.get_release_ns", quietOf(getNs, false), "ns")
	rep.set("broker.fanout4_publish_ns", quietOf(fanNs, false), "ns")
	rep.set("broker.allocs_per_msg", float64(allocs)/float64(2*n*r.trials), "count")
	return nil
}

// ---- direct calls: seglog

func (r *run) microSeglog(rep *report, f float64) error {
	n := count(4000, f, 64)
	body := make([]byte, 4<<10)
	props := wire.Properties{DeliveryMode: 2}
	var appendNs, ackNs []float64
	var allocs uint64
	var diskPerMsg float64
	offs := make([]uint64, n)
	for k := 0; k < r.trials; k++ {
		// RetainAll keeps acked segments, so DiskBytes is what was written.
		l, _, err := seglog.Open(filepath.Join(r.dataDir(), "seglog"), seglog.Options{Fsync: seglog.FsyncNever, RetainAll: true})
		if err != nil {
			return err
		}
		base := l.DiskBytes()
		m0 := mallocs()
		t0 := now()
		for i := range offs {
			if offs[i], err = l.Append("", "ladder.q", &props, body); err != nil {
				l.Close()
				return err
			}
		}
		t1 := now()
		for _, off := range offs {
			if err := l.Ack(off); err != nil {
				l.Close()
				return err
			}
		}
		t2 := now()
		allocs += mallocs() - m0
		diskPerMsg = float64(l.DiskBytes()-base) / float64(n)
		if err := l.Remove(); err != nil {
			return err
		}
		appendNs = append(appendNs, float64(t1-t0)/float64(n))
		ackNs = append(ackNs, float64(t2-t1)/float64(n))
	}
	rep.set("seglog.append_ns_4k", quietOf(appendNs, false), "ns")
	rep.set("seglog.ack_ns", quietOf(ackNs, false), "ns")
	rep.set("seglog.disk_bytes_per_msg", diskPerMsg, "B")
	rep.set("seglog.allocs_per_msg", float64(allocs)/float64(n*r.trials), "count")
	return nil
}

// ---- direct calls: the figure harness's own payload work

func (r *run) microWorkload(rep *report, f float64) error {
	n := count(200, f, 8)
	w := workloadpkg.Dstream
	body, err := workloadpkg.NewGenerator(w, 0).Payload(0)
	if err != nil {
		return err
	}
	var failed error
	rep.set("workload.verify_ns_dstream", r.timeBest(n, func() {
		for i := 0; i < n; i++ {
			if err := w.Verify(body); err != nil {
				failed = err
			}
		}
	}), "ns")
	// A Generator caches its first payload; a fresh one per call prices
	// the generation itself.
	rep.set("workload.generate_ns_dstream", r.timeBest(n, func() {
		for i := 0; i < n; i++ {
			if _, err := workloadpkg.NewGenerator(w, i).Payload(uint64(i)); err != nil {
				failed = err
			}
		}
	}), "ns")
	return failed
}

// ---- direct calls: netem's own accuracy

// microNetem measures how far netem's pacing and latency are from what a
// link asks for: fb_wan's rate and RTT are made of these two.
func (r *run) microNetem(rep *report) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	dial := func(l *netem.Link) (net.Conn, error) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return netem.Wrap(c, l), nil
	}

	// Pacing: 12 MiB through a 1 Gbps link should take 100.7 ms.
	const rate, total = int64(1e9), 12 << 20
	c, err := dial(netem.NewLink("pace", rate, 0))
	if err != nil {
		return err
	}
	chunk := make([]byte, 64<<10)
	var pace []float64
	for k := 0; k < 3; k++ {
		t0 := now()
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := c.Write(chunk); err != nil {
				c.Close()
				return err
			}
		}
		want := float64(total) * 8 / float64(rate) * 1e9
		pace = append(pace, math.Abs(float64(now()-t0)-want)/want)
	}
	c.Close()
	rep.set("netem.pacing_error_frac", quietOf(pace, false), "frac")

	// Latency: a write after an idle gap should take the link's latency.
	const lat = time.Millisecond
	c, err = dial(netem.NewLink("lat", 0, lat))
	if err != nil {
		return err
	}
	defer c.Close()
	var over []float64
	for i := 0; i < 40; i++ {
		time.Sleep(lat + lat/2)
		t0 := now()
		if _, err := c.Write(chunk[:64]); err != nil {
			return err
		}
		over = append(over, math.Abs(float64(now()-t0)-float64(lat))/float64(lat))
	}
	rep.set("netem.latency_error_frac", quantile(over, 0.5), "frac")
	return nil
}

// ---- rungs

// countingConn counts the calls and bytes that cross it.
type countingConn struct {
	net.Conn
	c *ioCounts
}

type ioCounts struct{ reads, writes, bytes atomic.Int64 }

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// Unwrap lets transport.CloseWrite reach the half-close of the real conn.
func (c *countingConn) Unwrap() net.Conn { return c.Conn }

// countingDial wraps every connection dial returns in a countingConn.
func countingDial(dial transport.DialFunc, c *ioCounts) transport.DialFunc {
	return func(network, addr string) (net.Conn, error) {
		conn, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, c: c}, nil
	}
}

// rung is one hand-built path (or one deployed architecture) with a live
// work-sharing session on it.
type rung struct {
	name  string
	s     *session
	close func()
	cpu   map[string][]float64 // size suffix -> per-trial CPU us per message
	rate  map[string][]float64
}

// closers runs cleanup functions last-in first-out.
type closers []func()

func (c closers) run() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

func plainLeg(addr string) leg { return leg{url: "amqp://" + addr} }

func dialLeg(addr string, p transport.Path) leg {
	return leg{url: "amqp://" + addr, cfg: amqp.Config{Dial: p.Dial()}}
}

// idle is an unshaped link: it wraps connections exactly as the
// deployments' zero-rate links do (and hides ReadFrom from io.Copy).
func idle(name string) *netem.Link { return netem.NewLink(name, 0, 0) }

// listenBroker starts a standalone broker node on loopback and books its
// shutdown in cl.
func listenBroker(cfg broker.Config, cl *closers) (*broker.Server, error) {
	cfg.Addr = "127.0.0.1:0"
	srv, err := broker.Listen(cfg)
	if err != nil {
		return nil, err
	}
	*cl = append(*cl, func() { srv.Close() })
	return srv, nil
}

// A pathBuilder starts one rung's hand-built path and returns the two
// client legs through it. Whatever it starts it books in cl, also when it
// fails half-way, so the caller can always tear down with cl.run().
type pathBuilder func(cl *closers) (prod, cons leg, err error)

// floor: amqp client <-> broker over plain loopback.
func floorPath(cl *closers) (leg, leg, error) {
	srv, err := listenBroker(broker.Config{}, cl)
	if err != nil {
		return leg{}, leg{}, err
	}
	return plainLeg(srv.Addr()), plainLeg(srv.Addr()), nil
}

// tls: both legs AMQPS, as DTS's NodePorts.
func tlsPath(cl *closers) (leg, leg, error) {
	id, err := tlsutil.SelfSigned("ladder-tls", "127.0.0.1")
	if err != nil {
		return leg{}, leg{}, err
	}
	srv, err := listenBroker(broker.Config{TLS: id.ServerConfig()}, cl)
	if err != nil {
		return leg{}, leg{}, err
	}
	l := dialLeg(srv.Addr(), transport.Path{transport.TLSClient(id.ClientConfig("127.0.0.1"))})
	return l, l, nil
}

// relay: one bare transport.Relay on the producer leg, its socket calls
// counted in c.
func relayPath(c *ioCounts) pathBuilder {
	return func(cl *closers) (leg, leg, error) {
		srv, err := listenBroker(broker.Config{}, cl)
		if err != nil {
			return leg{}, leg{}, err
		}
		addr, stop, err := startRelay(srv.Addr(), c)
		if err != nil {
			return leg{}, leg{}, err
		}
		*cl = append(*cl, stop)
		return plainLeg(addr), plainLeg(srv.Addr()), nil
	}
}

// s2ds: the producer leg through an Outbound/Inbound pair and its TLS
// tunnel, wired as core's PRS deployment wires them.
func s2dsPath(cl *closers) (leg, leg, error) {
	srv, err := listenBroker(broker.Config{}, cl)
	if err != nil {
		return leg{}, leg{}, err
	}
	tunnelID, err := tlsutil.SelfSigned("ladder-s2ds", "127.0.0.1")
	if err != nil {
		return leg{}, leg{}, err
	}
	in, err := scistream.NewInbound(scistream.InboundConfig{
		Targets: []string{srv.Addr()}, Tunnel: scistream.TunnelHAProxy, Identity: tunnelID,
		WANLink: idle("wan"), ProcLink: idle("cs2ds-proc"),
	})
	if err != nil {
		return leg{}, leg{}, err
	}
	*cl = append(*cl, func() { in.Close() })
	out, err := scistream.NewOutbound(scistream.OutboundConfig{
		RemoteProxy: in.Addr(), Tunnel: scistream.TunnelHAProxy, NumConns: 1, Identity: tunnelID,
		ServerName: "127.0.0.1", ProcLink: idle("ps2ds-proc"),
		DialWAN: (&netem.Dialer{Link: idle("wan")}).Dial,
	})
	if err != nil {
		return leg{}, leg{}, err
	}
	*cl = append(*cl, func() { out.Close() })
	return plainLeg(out.Addr()), plainLeg(srv.Addr()), nil
}

// frontdoor: both legs through the MSS load balancer and ingress.
func frontdoorPath(cl *closers) (leg, leg, error) {
	srv, err := listenBroker(broker.Config{}, cl)
	if err != nil {
		return leg{}, leg{}, err
	}
	const fqdn = "ladder.apps.olivine.local"
	routes := mss.NewRouteController()
	routes.Register(fqdn, []string{srv.Addr()})
	ing, err := mss.NewIngress(mss.IngressConfig{Routes: routes, ProcLink: idle("ingress-proc")})
	if err != nil {
		return leg{}, leg{}, err
	}
	*cl = append(*cl, func() { ing.Close() })
	lbID, err := tlsutil.SelfSigned("ladder-lb", "127.0.0.1", "*.apps.olivine.local")
	if err != nil {
		return leg{}, leg{}, err
	}
	lb, err := mss.NewLoadBalancer(mss.LBConfig{
		Identity: lbID, IngressAddr: ing.Addr(), Workers: 16, ProcLink: idle("lb-proc"),
	})
	if err != nil {
		return leg{}, leg{}, err
	}
	*cl = append(*cl, func() { lb.Close() })
	l := dialLeg(fqdn+":443", transport.Path(mss.FrontDoor(lb.Addr(), fqdn, lbID.ClientConfig(fqdn))))
	return l, l, nil
}

// netem: an unshaped link on each client leg and on the broker's
// listener, as every deployment has.
func netemPath(cl *closers) (leg, leg, error) {
	srv, err := listenBroker(broker.Config{Link: idle("dsn")}, cl)
	if err != nil {
		return leg{}, leg{}, err
	}
	l := dialLeg(srv.Addr(), transport.Path{transport.Link(idle("nic"))})
	return l, l, nil
}

// archPath is an architecture itself, through core.Deploy.
func archPath(a arch, topo topology) pathBuilder {
	return func(cl *closers) (leg, leg, error) {
		dep, err := core.Deploy(a.name, core.Options{Nodes: 3, Profile: unshaped()})
		if err != nil {
			return leg{}, leg{}, err
		}
		*cl = append(*cl, func() { dep.Close() })
		prod, cons := legsFor(dep, topo)
		return prod, cons, nil
	}
}

// buildRungs starts every rung's path and opens a session on it.
// relayIO counts the bare relay's socket calls.
func buildRungs(relayIO *ioCounts) ([]*rung, error) {
	topo := topology{kind: workSharing, queues: []string{"bench.work"}, maxW: ladderSizes[0].w}
	type namedPath struct {
		name  string
		build pathBuilder
	}
	paths := []namedPath{
		{"floor", floorPath}, {"tls", tlsPath}, {"relay", relayPath(relayIO)},
		{"s2ds", s2dsPath}, {"frontdoor", frontdoorPath}, {"netem", netemPath},
	}
	for _, a := range archs {
		paths = append(paths, namedPath{a.key, archPath(a, topo)})
	}
	var rungs []*rung
	for _, p := range paths {
		var cl closers
		prod, cons, err := p.build(&cl)
		var s *session
		if err == nil {
			s, err = openSession(p.name, prod, cons, topo)
		}
		if err != nil {
			cl.run()
			for _, g := range rungs {
				g.close()
			}
			return nil, fmt.Errorf("rung %s: %w", p.name, err)
		}
		rungs = append(rungs, &rung{
			name: p.name, s: s, cpu: map[string][]float64{}, rate: map[string][]float64{},
			close: func() { s.close(); cl.run() },
		})
	}
	return rungs, nil
}

// startRelay accepts connections and relays each to target through
// transport.Relay, with counting conns on both sides of the relay.
func startRelay(target string, c *ioCounts) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			a, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", target)
			if err != nil {
				a.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				transport.Relay(&countingConn{Conn: a, c: c}, &countingConn{Conn: b, c: c})
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }, nil
}

// rungs runs the loop over every rung at both sizes, trials interleaved
// round-robin, and reports each layer's CPU per message above the floor
// and what the architectures cost beyond floor + their layers.
func (r *run) rungs(rep *report, tl *tally, f float64) error {
	var relayIO ioCounts
	rungs, err := buildRungs(&relayIO)
	if err != nil {
		return err
	}
	defer func() {
		for _, g := range rungs {
			g.close()
		}
	}()
	var relayWrites float64
	for _, sz := range ladderSizes {
		n := count(sz.n, f, sz.w)
		pl := newPool(r.seed, sz.bodySize, sz.pool)
		for k := -1; k < r.trials; k++ { // trial -1 warms up
			for _, g := range rungs {
				w0 := relayIO.writes.Load()
				res, err := g.s.run(pl, phase{n: n, w: sz.w, warm: k < 0})
				tl.add(g.s, n)
				if err != nil {
					return err
				}
				if k < 0 {
					continue
				}
				g.cpu[sz.suffix] = append(g.cpu[sz.suffix], res.cpuUsPerMsg())
				g.rate[sz.suffix] = append(g.rate[sz.suffix], res.msgsPerSec())
				if g.name == "relay" && sz.suffix == "_1k" {
					relayWrites = float64(relayIO.writes.Load()-w0) / float64(n)
				}
			}
		}
	}
	by := map[string]*rung{}
	for _, g := range rungs {
		by[g.name] = g
	}
	for _, sz := range ladderSizes {
		cpu := func(name string) float64 { return quietOf(by[name].cpu[sz.suffix], false) }
		floor := cpu("floor")
		rep.set("ladder.floor_cpu_us"+sz.suffix, floor, "us")
		rep.set("ladder.floor_msgs_per_s"+sz.suffix, quietOf(by["floor"].rate[sz.suffix], true), "1/s")
		layer := map[string]float64{}
		for name, metric := range map[string]string{
			"tls": "tls.hop_cpu_us", "relay": "transport.relay_hop_cpu_us", "s2ds": "scistream.s2ds_cpu_us",
			"frontdoor": "mss.frontdoor_cpu_us", "netem": "netem.wrap_cpu_us",
		} {
			layer[name] = cpu(name) - floor
			rep.set(metric+sz.suffix, layer[name], "us")
		}
		// The layers on each architecture's path. The netem rung wraps
		// four connections (both client legs, both broker-side ends) as
		// DTS and PRS do; MSS broker pods carry no DSN link, so only the
		// two client wraps — half the rung — are on its path.
		type term struct {
			layer  string
			weight float64
		}
		for _, p := range []struct {
			arch string
			path []term
		}{
			{"dts", []term{{"tls", 1}, {"netem", 1}}},
			{"prs", []term{{"s2ds", 1}, {"netem", 1}}},
			{"mss", []term{{"frontdoor", 1}, {"netem", 0.5}}},
		} {
			arch := p.arch
			e2e, sum := cpu(arch), floor
			for _, t := range p.path {
				sum += t.weight * layer[t.layer]
			}
			rep.set("ladder."+arch+".unexplained_frac"+sz.suffix, (e2e-sum)/e2e, "frac")
			r.logf("ladder %s%s: e2e %.2f us/msg = floor %.2f + layers %.2f + unexplained %.2f\n",
				arch, sz.suffix, e2e, floor, sum-floor, e2e-sum)
		}
	}
	rep.set("transport.relay_writes_per_msg", relayWrites, "count")
	return nil
}

// ---- the client library, seen from its sockets

// clientLibrary runs the 1 KiB loop on DTS with counting conns between
// the amqp client and Endpoint.Path.Dial(), traced, and reports the
// client's call times, socket calls and wire bytes per message, plus the
// process's allocations per message on that path (the broker side
// allocates nothing per message, so these are the client library's).
func (r *run) clientLibrary(rep *report, tl *tally, f float64) error {
	dep, err := core.Deploy(core.DTS, core.Options{Nodes: 3, Profile: unshaped()})
	if err != nil {
		return err
	}
	defer dep.Close()
	sz := ladderSizes[0]
	topo := topology{kind: workSharing, queues: []string{"bench.work"}, maxW: sz.w}
	var ioc ioCounts
	prod, cons := legsFor(dep, topo)
	prod.cfg.Dial = countingDial(prod.cfg.Dial, &ioc)
	cons.cfg.Dial = countingDial(cons.cfg.Dial, &ioc)
	s, err := openSession("amqp", prod, cons, topo)
	if err != nil {
		return err
	}
	defer s.close()
	n := count(sz.n, f, sz.w)
	pl := newPool(r.seed, sz.bodySize, sz.pool)
	if _, err := s.run(pl, phase{n: n, w: sz.w, warm: true}); err != nil {
		return err
	}
	tl.add(s, n)
	var tr tracer
	var pubNs, ackNs []float64
	var allocs uint64
	rd0, wr0, b0 := ioc.reads.Load(), ioc.writes.Load(), ioc.bytes.Load()
	for k := 0; k < r.trials; k++ {
		m0 := mallocs()
		_, err := s.run(pl, phase{n: n, w: sz.w, tr: &tr})
		allocs += mallocs() - m0
		tl.add(s, n)
		if err != nil {
			return err
		}
		med := spanMedians(tr.spans())
		pubNs = append(pubNs, med[spanPublish]*1e3)
		ackNs = append(ackNs, med[spanAck]*1e3)
	}
	total := float64(n * r.trials)
	rep.set("amqp.publish_call_ns", quietOf(pubNs, false), "ns")
	rep.set("amqp.ack_call_ns", quietOf(ackNs, false), "ns")
	rep.set("amqp.allocs_per_msg", float64(allocs)/total, "count")
	rep.set("amqp.reads_per_msg", float64(ioc.reads.Load()-rd0)/total, "count")
	rep.set("amqp.writes_per_msg", float64(ioc.writes.Load()-wr0)/total, "count")
	rep.set("amqp.wire_bytes_per_msg", float64(ioc.bytes.Load()-b0)/total, "B")
	return nil
}

// ---- what the figure harness costs

// patternRun prices internal/pattern's own engine: the ws_small shape
// through pattern.Run with the Dstream workload, payload generation and
// zlib verification included. It moves no end-to-end metric here — the
// benchmark never goes through internal/pattern — and says how much of a
// figure row is the harness measuring itself.
func (r *run) patternRun(rep *report, f float64) error {
	// pattern.Run closes its connections right behind the consumer's last
	// basic.ack, and a connection torn down that closely can lose it
	// (README, "Findings"): the broker requeues the batch and Server.Close
	// never releases the bodies. That is the harness's teardown, not the
	// generator's, so what it leaves on loan is measured here, printed, and
	// taken out of the run's leak check instead of failing the run.
	before := loansAbove(0, 5*time.Second)
	err := r.patternTrials(rep, f)
	if left := loansAbove(before, 2*time.Second); left != 0 {
		r.harnessLoans += left
		r.logf("pattern.Run left %d pooled bytes on loan at teardown: reported, not counted as a leak\n", left)
	}
	return err
}

// patternTrials is patternRun's measurement, with its own deployment torn
// down on return.
func (r *run) patternTrials(rep *report, f float64) error {
	dep, err := core.Deploy(core.DTS, core.Options{Nodes: 3, Profile: unshaped()})
	if err != nil {
		return err
	}
	defer dep.Close()
	n := count(2000, f, 64)
	var cpu []float64
	for k := 0; k < 3; k++ {
		c0 := cpuTime()
		res, err := pattern.Run(context.Background(), pattern.WorkSharingName, pattern.Config{
			Deployment: dep, Workload: workloadpkg.Dstream, Producers: 1, Consumers: 1,
			MessagesPerProducer: n, WorkQueues: 1, Prefetch: 64, AckBatch: 16, Window: 64,
			Timeout: phaseTimeout,
		})
		if err != nil {
			return fmt.Errorf("pattern.Run: %w", err)
		}
		if res.Consumed != int64(n) {
			return fmt.Errorf("pattern.Run consumed %d of %d", res.Consumed, n)
		}
		cpu = append(cpu, float64((cpuTime()-c0).Microseconds())/float64(n))
	}
	rep.set("pattern.run_cpu_us_per_msg", quietOf(cpu, false), "us")
	return nil
}

// ---- replication and federation

// clusterCosts prices what no end-to-end workload exercises today: the
// synchronous mirror round trip (replication factor 2 minus 1) and the
// federation forward (publishing at a node that does not own the queue
// minus publishing at the owner), as CPU per publish->confirm on three
// durable federated nodes. A replication PR has these rows to start
// from and must add a workload first. Failures here are reported as
// cluster.failed_frac and never count toward the end-to-end share.
func (r *run) clusterCosts(rep *report, f float64) error {
	n := count(1500, f, 64)
	var attempted, failed int64
	measure := func(factor int, viaOwner bool) (float64, error) {
		dir := r.dataDir()
		c, err := cluster.StartWithOptions(3, cluster.Options{Federation: true, ReplicationFactor: factor}, func(i int) broker.Config {
			return broker.Config{DataDir: filepath.Join(dir, fmt.Sprintf("node-%d", i)), Durability: seglog.Options{Fsync: seglog.FsyncNever}}
		})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		const q = "ladder.mirror"
		insync := telemetry.Default.Gauge("cluster.insync_mirrors")
		base := insync.Load()
		owner := c.OwnerOf(q)
		own, err := amqp.Dial("amqp://" + c.Addrs()[owner])
		if err != nil {
			return 0, err
		}
		defer own.Close()
		och, err := own.Channel()
		if err != nil {
			return 0, err
		}
		if _, err := och.QueueDeclare(q, true, false, false, false, nil); err != nil {
			return 0, err
		}
		deliveries, err := och.Consume(q, "", true, false, false, false, nil)
		if err != nil {
			return 0, err
		}
		pch := och
		if !viaOwner {
			other, err := amqp.Dial("amqp://" + c.Addrs()[(owner+1)%3])
			if err != nil {
				return 0, err
			}
			defer other.Close()
			if pch, err = other.Channel(); err != nil {
				return 0, err
			}
		}
		if err := pch.Confirm(false); err != nil {
			return 0, err
		}
		const window = 16
		confirms := pch.NotifyPublish(make(chan amqp.Confirmation, window))
		if factor >= 2 {
			deadline := time.Now().Add(10 * time.Second)
			for insync.Load()-base < 1 {
				if time.Now().After(deadline) {
					return 0, errors.New("mirror never reached in-sync")
				}
				time.Sleep(time.Millisecond)
			}
		}
		body := make([]byte, 4<<10)
		timeout := time.After(phaseTimeout)
		c0 := cpuTime()
		sent, confirmed, got := 0, 0, 0
		for confirmed < n || got < n {
			for sent < n && sent-confirmed < window {
				if err := pch.Publish("", q, false, false, amqp.Publishing{Body: body, DeliveryMode: 2}); err != nil {
					return 0, err
				}
				sent++
			}
			select {
			case cf, ok := <-confirms:
				if !ok {
					return 0, errSessionDead
				}
				confirmed++
				if !cf.Ack {
					failed++
				}
			case _, ok := <-deliveries:
				if !ok {
					return 0, errSessionDead
				}
				got++
			case <-timeout:
				failed += int64(2*n - confirmed - got)
				return 0, fmt.Errorf("cluster loop: %d of %d confirmed, %d delivered", confirmed, n, got)
			}
		}
		attempted += int64(n)
		return float64((cpuTime() - c0).Microseconds()) / float64(n), nil
	}
	var r1, r2, fwd []float64
	for k := 0; k < 2; k++ {
		for _, m := range []struct {
			factor int
			owner  bool
			into   *[]float64
		}{{1, true, &r1}, {2, true, &r2}, {1, false, &fwd}} {
			v, err := measure(m.factor, m.owner)
			if err != nil {
				return fmt.Errorf("cluster (R=%d, via owner %v): %w", m.factor, m.owner, err)
			}
			*m.into = append(*m.into, v)
		}
	}
	base := quietOf(r1, false)
	rep.set("cluster.mirror_cpu_us_per_msg", quietOf(r2, false)-base, "us")
	rep.set("cluster.federation_forward_cpu_us", quietOf(fwd, false)-base, "us")
	rep.set("cluster.failed_frac", float64(failed)/float64(attempted), "frac")
	return nil
}
