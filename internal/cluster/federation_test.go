package cluster

import (
	"reflect"
	"testing"
)

// verdictLog records ClusterConfirm calls in arrival order.
type verdictLog struct {
	seqs []uint64
	oks  []bool
}

func (v *verdictLog) ClusterConfirm(seq uint64, ok bool) {
	v.seqs = append(v.seqs, seq)
	v.oks = append(v.oks, ok)
}

// TestFedLinkSettleResolvesEachForwardOnce feeds a link the confirm stream
// of a master that batches its acks — multiple-acks interleaved with the
// single verdicts of replicated queues, which overtake them — and checks
// every outstanding forward is relayed to its origin exactly once.
func TestFedLinkSettleResolvesEachForwardOnce(t *testing.T) {
	const n = 10
	log := &verdictLog{}
	l := &fedLink{next: 1, seq: n, pending: map[uint64]fedPending{}}
	for s := uint64(1); s <= n; s++ {
		// Origin seqs differ from link seqs: the relay must use the former.
		l.pending[s] = fedPending{target: log, seq: s + 100}
	}
	for _, v := range []struct {
		tag      uint64
		multiple bool
		ok       bool
	}{
		{3, false, true},  // single verdict ahead of the run below it
		{5, true, true},   // the run: 1, 2, 4, 5
		{7, false, false}, // nack
		{6, true, true},   // multiple below an already-settled seq
		{6, true, true},   // duplicate
		{3, false, true},  // duplicate
		{10, true, true},  // 8, 9, 10 — not the nacked 7
	} {
		l.settle(v.tag, v.multiple, v.ok)
	}
	wantSeqs := []uint64{103, 101, 102, 104, 105, 107, 106, 108, 109, 110}
	wantOKs := []bool{true, true, true, true, true, false, true, true, true, true}
	if !reflect.DeepEqual(log.seqs, wantSeqs) || !reflect.DeepEqual(log.oks, wantOKs) {
		t.Fatalf("relayed %v %v\n   want %v %v", log.seqs, log.oks, wantSeqs, wantOKs)
	}
	if len(l.pending) != 0 || l.next != n+1 {
		t.Fatalf("%d forwards left pending, next=%d; want 0, %d", len(l.pending), l.next, n+1)
	}
}
