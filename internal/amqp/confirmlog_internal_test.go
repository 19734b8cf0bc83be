package amqp

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"
)

// logOpKind is one step a channel takes its confirm log through.
type logOpKind uint8

const (
	opPublish  logOpKind = iota
	opAckOne             // a single ack
	opAckMany            // a multiple ack
	opNackOne            // a single nack, which resolves like an ack
	opNackMany           // a multiple nack
	opRepeat             // the previous verdict again: a duplicate
	opCut                // the transport dies
	opReplay             // a new transport's replay
	opClose              // the channel ends
	numLogOps
)

// logOp is a step; pick chooses a verdict's tag, from 0 (never issued) up
// to one past the current transport's last tag.
type logOp struct {
	kind logOpKind
	pick uint8
}

// confirmRef is the reference the model test holds the log to: the
// at-least-once contract of publisher confirms across reconnects, kept in
// the plainest terms. wire lists, by tag, the sequence numbers the current
// transport carries; a verdict resolves the ones it covers that no earlier
// verdict did. A replay puts every unresolved publish on a new wire in
// sequence order, and nothing happens after close.
type confirmRef struct {
	keep         bool
	published    uint64
	wire         []uint64
	resolved     map[uint64]bool
	lost, closed bool
	lastTag      uint64 // the previous verdict, for opRepeat
	lastMultiple bool
}

// confirmModel runs a log against the reference, failing at the first
// step where they disagree.
type confirmModel struct {
	log   confirmLog
	ref   confirmRef
	times map[uint64]int // seq → confirmations the log emitted for it
}

func newConfirmModel(keep bool) *confirmModel {
	m := &confirmModel{ref: confirmRef{keep: keep, resolved: map[uint64]bool{}}, times: map[uint64]int{}}
	m.log.keep = keep
	return m
}

func (m *confirmModel) step(op logOp) error {
	r := &m.ref
	switch op.kind {
	case opPublish:
		key := strconv.FormatUint(r.published+1, 10)
		want := uint64(0)
		if !r.closed {
			r.published++
			want = r.published
			r.wire = append(r.wire, want)
		}
		if got := m.log.append(&pendingPublish{key: key}); got != want {
			return fmt.Errorf("publish took seq %d, want %d (closed=%v)", got, want, r.closed)
		}
	case opAckOne, opAckMany, opNackOne, opNackMany, opRepeat:
		if op.kind != opRepeat {
			r.lastTag = uint64(op.pick) % uint64(len(r.wire)+2)
			r.lastMultiple = op.kind == opAckMany || op.kind == opNackMany
		}
		return m.verdict(r.lastTag, r.lastMultiple)
	case opCut:
		r.lost = true
		m.log.cut()
	case opReplay:
		var want []uint64
		if !r.closed {
			for s := uint64(1); s <= r.published; s++ {
				if !r.resolved[s] {
					want = append(want, s)
				}
			}
			r.wire, r.lost = want, false
		}
		recs := m.log.replay(nil)
		if len(recs) != len(want) {
			return fmt.Errorf("replay republished %d publishes, want %d (%v)", len(recs), len(want), want)
		}
		for i, p := range recs {
			switch wantKey := strconv.FormatUint(want[i], 10); {
			case !r.keep && p != nil:
				return fmt.Errorf("replay's publish %d kept record %q without keep", i+1, p.key)
			case r.keep && (p == nil || p.key != wantKey):
				return fmt.Errorf("replay's publish %d is record %v, want %q", i+1, p, wantKey)
			}
		}
	case opClose:
		r.closed = true
		m.log.close()
	}
	return nil
}

func (m *confirmModel) verdict(tag uint64, multiple bool) error {
	r := &m.ref
	var want []uint64
	if !r.closed && !r.lost && tag >= 1 && tag <= uint64(len(r.wire)) {
		covered := r.wire[tag-1 : tag]
		if multiple {
			covered = r.wire[:tag]
		}
		for _, s := range covered {
			if !r.resolved[s] {
				r.resolved[s] = true
				want = append(want, s)
			}
		}
	}
	got := append([]uint64(nil), m.log.resolve(tag, multiple)...)
	for _, s := range got {
		m.times[s]++
		if m.times[s] > 1 {
			return fmt.Errorf("seq %d confirmed %d times", s, m.times[s])
		}
	}
	if len(got) > 0 && r.closed {
		return fmt.Errorf("verdict {tag %d multiple=%v} after close confirmed %v", tag, multiple, got)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("verdict {tag %d multiple=%v} on wire %v confirmed %v, want %v", tag, multiple, r.wire, got, want)
	}
	return nil
}

// finish settles a schedule that did not close: one more transport whose
// broker acks everything, after which every publish has been confirmed
// exactly once.
func (m *confirmModel) finish() error {
	if m.ref.closed {
		return nil
	}
	for _, op := range []logOp{{kind: opCut}, {kind: opReplay}} {
		if err := m.step(op); err != nil {
			return err
		}
	}
	if err := m.verdict(uint64(len(m.ref.wire)), true); err != nil {
		return err
	}
	for s := uint64(1); s <= m.ref.published; s++ {
		if m.times[s] != 1 {
			return fmt.Errorf("seq %d confirmed %d times, want once", s, m.times[s])
		}
	}
	return nil
}

// runConfirmModel drives a fresh log through ops and then finish.
func runConfirmModel(keep bool, ops []logOp) error {
	m := newConfirmModel(keep)
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return fmt.Errorf("op %d (kind %d, pick %d): %w", i, op.kind, op.pick, err)
		}
	}
	return m.finish()
}

// TestConfirmLogModel drives the confirm log through seeded random
// interleavings of publishes, verdicts (single, multiple, nack, duplicate,
// overtaking a lower unresolved tag, naming a tag never issued), cuts,
// replays and close, against confirmRef: every publish is confirmed exactly
// once, a publish unresolved at a cut is republished once by the next
// replay in sequence order, and nothing is confirmed after close. One seed
// in four runs without replay records, as on a connection that does not
// reconnect.
func TestConfirmLogModel(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	weights := [numLogOps]int{
		opPublish: 36, opAckOne: 14, opAckMany: 12, opNackOne: 5, opNackMany: 3,
		opRepeat: 6, opCut: 4, opReplay: 6, opClose: 1,
	}
	var total int
	for _, w := range weights {
		total += w
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x636f6e6669726d))
		ops := make([]logOp, 50+rng.IntN(250))
		for i := range ops {
			n := rng.IntN(total)
			k := logOpKind(0)
			for n >= weights[k] {
				n -= weights[k]
				k++
			}
			if k == opClose && rng.IntN(4) != 0 {
				k = opPublish // close is rare: most schedules reach finish
			}
			ops[i] = logOp{kind: k, pick: uint8(rng.Uint32())}
		}
		if err := runConfirmModel(seed%4 != 0, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// decodeLogOps reads a schedule two bytes per step: the kind, then the
// pick. The first byte's low bit is whether the log keeps records.
func decodeLogOps(data []byte) (keep bool, ops []logOp) {
	if len(data) == 0 {
		return true, nil
	}
	keep, data = data[0]&1 == 1, data[1:]
	for ; len(data) >= 2; data = data[2:] {
		ops = append(ops, logOp{kind: logOpKind(data[0] % byte(numLogOps)), pick: data[1]})
	}
	return keep, ops
}

// FuzzConfirmLog checks the confirm log against confirmRef on arbitrary
// schedules; its seed schedules are under testdata/fuzz/FuzzConfirmLog.
func FuzzConfirmLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		keep, ops := decodeLogOps(data)
		if err := runConfirmModel(keep, ops); err != nil {
			t.Fatal(err)
		}
	})
}
