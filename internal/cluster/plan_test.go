package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// storeOf returns node i's standby replica store (nil on unreplicated
// clusters).
func (c *Cluster) storeOf(i int) *mirrorStore { return c.stores[i] }

func (k actionKind) String() string {
	return [...]string{"promote", "surrender", "relocate", "declare-empty", "repin", "remirror"}[k]
}

func (a action) String() string {
	if a.kind == actRemirror {
		return fmt.Sprintf("remirror on %d (drop %d)", a.q.Node, a.from)
	}
	return fmt.Sprintf("%s %s to %d (from %d, wipe %v, log %v)", a.kind, a.q.Name, a.q.Node, a.from, a.wipe, a.log)
}

// TestFailoverPlan pins what each planner decides for one queue in each
// situation the failover and join paths tell apart.
func TestFailoverPlan(t *testing.T) {
	q := func(name string, durable bool, node int) QueueInfo {
		return QueueInfo{VHost: "/", Name: name, Durable: durable, Node: node}
	}
	// Three nodes with data directories and replication; the ring has
	// dropped node 0 (failover) or taken it back (join).
	nodes := func(live ...int) []nodeView {
		ns := make([]nodeView, 3)
		for j := range ns {
			ns[j] = nodeView{dataDir: true, standby: slices.Contains(live, j), replicates: true}
		}
		return ns
	}
	remirror := func(dead int) []action {
		return []action{{kind: actRemirror, q: QueueInfo{Node: 1}, from: dead}, {kind: actRemirror, q: QueueInfo{Node: 2}, from: dead}}
	}
	plan := func(acts ...[]action) []action { return slices.Concat(acts...) }

	cases := []struct {
		name string
		join bool
		v    view
		want []action
	}{{
		name: "the most advanced in-sync mirror on a live node is promoted",
		v: view{node: 0, nodes: nodes(1, 2), queues: []queueView{{
			QueueInfo: q("r", true, 0), owner: 1,
			insync: []replica{{node: 1, next: 5}, {node: 2, next: 9}},
		}}},
		want: plan([]action{
			{kind: actPromote, q: q("r", true, 2), from: 0},
			{kind: actRepin, q: q("r", true, 2), from: 0},
		}, remirror(0)),
	}, {
		name: "a tie goes to the first mirror to join; a mirror off the ring is passed over",
		v: view{node: 0, nodes: nodes(1), queues: []queueView{{
			QueueInfo: q("r", true, 0), owner: 2,
			insync: []replica{{node: 2, next: 9}, {node: 1, next: 4}, {node: 1, next: 4}},
		}}},
		want: plan([]action{
			{kind: actPromote, q: q("r", true, 1), from: 0},
			{kind: actRepin, q: q("r", true, 1), from: 0},
		}, remirror(0)),
	}, {
		// Its half-scanned mirror is not in-sync, so not promotable: the
		// log moves to the ring owner, whose stale standby the relocation
		// wipes.
		name: "a queue whose only mirror is half-scanned relocates with its log",
		v:    view{node: 0, nodes: nodes(1, 2), queues: []queueView{{QueueInfo: q("h", true, 0), owner: 1}}},
		want: plan([]action{
			{kind: actRelocate, q: q("h", true, 1), from: 0, wipe: true, log: true},
			{kind: actRepin, q: q("h", true, 1), from: 0},
		}, remirror(0)),
	}, {
		name: "a transient queue is declared empty; every creation precedes every repin",
		v: view{node: 0, nodes: nodes(1, 2), queues: []queueView{
			{QueueInfo: q("a", true, 0), owner: 2},
			{QueueInfo: q("b", false, 0), owner: 1},
			{QueueInfo: q("c", true, 1), owner: 1},
		}},
		want: plan([]action{
			{kind: actRelocate, q: q("a", true, 2), from: 0, wipe: true, log: true},
			{kind: actDeclare, q: q("b", false, 1), from: 0},
			{kind: actRepin, q: q("a", true, 2), from: 0},
			{kind: actRepin, q: q("b", false, 1), from: 0},
		}, remirror(0)),
	}, {
		name: "a dead node without a data directory has no log to move",
		v:    view{node: 0, nodes: []nodeView{{}, {}}, queues: []queueView{{QueueInfo: q("d", true, 0), owner: 1}}},
		want: []action{
			{kind: actRelocate, q: q("d", true, 1), from: 0},
			{kind: actRepin, q: q("d", true, 1), from: 0},
		},
	}, {
		name: "when the last node dies nothing moves",
		v:    view{node: 0, nodes: []nodeView{{dataDir: true, replicates: true}}, queues: []queueView{{QueueInfo: q("l", true, 0), owner: -1}}},
	}, {
		name: "on a join a quiescent unreplicated queue moves back; a busy one and a replicated one stay",
		join: true,
		v: view{node: 0, nodes: nodes(0, 1, 2), queues: []queueView{
			{QueueInfo: q("busy", true, 1), owner: 0},
			{QueueInfo: q("empty", true, 1), owner: 0, quiescent: true},
			{QueueInfo: q("home", true, 0), owner: 0, quiescent: true},
			{QueueInfo: q("other", true, 2), owner: 2, quiescent: true},
			{QueueInfo: q("repl", true, 2), owner: 0, quiescent: true, replicated: true},
			{QueueInfo: q("temp", false, 2), owner: 0, quiescent: true},
		}},
		want: plan([]action{
			{kind: actSurrender, q: q("empty", true, 0), from: 1},
			{kind: actRelocate, q: q("empty", true, 0), from: 1, wipe: true, log: true},
			{kind: actSurrender, q: q("temp", false, 0), from: 2},
			{kind: actDeclare, q: q("temp", false, 0), from: 2},
			{kind: actRepin, q: q("empty", true, 0), from: 1},
			{kind: actRepin, q: q("temp", false, 0), from: 2},
		}, remirror(-1)),
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			planner := planFailover
			if tc.join {
				planner = planJoin
			}
			if got := planner(tc.v); !slices.Equal(got, tc.want) {
				t.Fatalf("plan:\n  %v\nwant:\n  %v", got, tc.want)
			}
		})
	}
}
