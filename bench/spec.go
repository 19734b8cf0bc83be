package main

import (
	"fmt"

	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/core"
	"ds2hpc/internal/fabric"
)

// arch is one architecture under test and the prefix of its metrics.
type arch struct {
	key  string // metric prefix: dts, prs, mss
	name core.ArchitectureName
}

// The three architectures, in the round-robin order trials interleave.
var archs = []arch{
	{"dts", core.DTS},
	{"prs", core.PRSHAProxy},
	{"mss", core.MSS},
}

// defaultSeconds is the run length the message counts below are sized
// for; --seconds scales the counts, never the number of trials, so a
// shorter run is noisier rather than differently shaped.
const defaultSeconds = 24

// workload is one benchmark workload: a pattern, a payload size, a link
// profile and the two phase shapes of a trial.
type workload struct {
	name string
	kind kind

	bodySize  int
	poolCount int // bodies in the pre-generated pool
	shaped    bool
	durable   bool

	wSat, wLat int // window: messages between publish and receipt
	nSat, nLat int // messages per trial phase at defaultSeconds
	trials     int // K: trials per architecture, interleaved round-robin
}

// Why each was chosen is in BENCHMARK.json and README.md: in one line,
// ws_small is per-message cost, ws_bulk per-byte cost, fb_wan the same
// layers link-bound and idle, bg_durable the seglog and fanout path.
var workloads = []workload{
	{
		name: "ws_small", kind: workSharing,
		bodySize: 1 << 10, poolCount: 4096,
		wSat: 64, wLat: 8, nSat: 12000, nLat: 2500, trials: 32,
	},
	{
		name: "ws_bulk", kind: workSharing,
		bodySize: 1 << 20, poolCount: 64,
		wSat: 16, wLat: 2, nSat: 64, nLat: 32, trials: 36,
	},
	{
		name: "fb_wan", kind: feedback,
		bodySize: 16 << 10, poolCount: 4096, shaped: true,
		wSat: 64, wLat: 1, nSat: 1000, nLat: 40, trials: 24,
	},
	{
		name: "bg_durable", kind: gather,
		bodySize: 4 << 10, poolCount: 4096, durable: true,
		wSat: 16, wLat: 2, nSat: 2500, nLat: 600, trials: 24,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns the workload with its message counts multiplied by f
// (at least one full window per phase) and, when trials > 0, K replaced.
func (w workload) scaled(f float64, trials int) workload {
	scale := func(n, min int) int {
		n = int(float64(n) * f)
		if n < min {
			n = min
		}
		return n
	}
	w.nSat = scale(w.nSat, w.wSat)
	w.nLat = scale(w.nLat, 2*w.wLat)
	if trials > 0 {
		w.trials = trials
	}
	return w
}

// unshaped is the link profile of the workloads that measure the stack
// rather than the emulated network: every rate and latency zero. Scale
// must be non-zero or core.Deploy substitutes ACE(1.0).
func unshaped() fabric.Profile { return fabric.Profile{Scale: 1, LBWorkers: 16} }

// options builds the deployment options for the workload. dataDir is
// used by durable workloads only.
func (w workload) options(dataDir string) core.Options {
	o := core.Options{Nodes: 3, Profile: unshaped()}
	if w.shaped {
		o.Profile = fabric.ACE(1.0)
	}
	if w.durable {
		o.DataDir = dataDir
		o.Durability = seglog.Options{Fsync: seglog.FsyncNever}
	}
	return o
}

// topologyFor names the workload's queues on dep. Every queue is pinned
// to the node that owns the first one, by searching names, so replies and
// all fanout parts travel the same connections.
func (w workload) topologyFor(dep core.Deployment) topology {
	cl := dep.Cluster()
	anchor := "bench.work"
	node := cl.OwnerOf(anchor)
	pinned := func(base string) string {
		name := base
		for i := 0; cl.OwnerOf(name) != node; i++ {
			name = fmt.Sprintf("%s~%d", base, i)
		}
		return name
	}
	t := topology{kind: w.kind, durable: w.durable, maxW: w.wSat, queues: []string{anchor}}
	switch w.kind {
	case feedback:
		t.reply = pinned("bench.reply")
	case gather:
		t.fanout = "bench.fan"
		t.reply = pinned("bench.gather")
		for i := 1; i < gatherParts; i++ {
			t.queues = append(t.queues, pinned(fmt.Sprintf("bench.part-%d", i)))
		}
	}
	return t
}

// legsFor returns the producer and consumer legs of dep for a topology.
func legsFor(dep core.Deployment, t topology) (prod, cons leg) {
	pe, ce := dep.ProducerEndpoint(t.queues[0]), dep.ConsumerEndpoint(t.queues[0])
	return leg{pe.URL, pe.Config()}, leg{ce.URL, ce.Config()}
}
