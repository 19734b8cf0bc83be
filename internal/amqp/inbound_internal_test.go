package amqp

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"ds2hpc/internal/wire"
)

// inOpKind is one step a channel takes its receive core through.
type inOpKind uint8

const (
	inDeliverManual inOpKind = iota // basic.deliver to a manual-ack consumer
	inDeliverAuto                   // basic.deliver to an auto-ack consumer
	inGetOk
	inReturn
	inHeader  // pick chooses the declared body size
	inBody    // pick chooses the frame's length against what is left
	inAck     // single settles of the current epoch
	inNack    //
	inReject  //
	inAckMany // multiple settles of the current epoch; tag 0 covers all
	inNackMany
	inStale  // a settle carrying an older epoch
	inCut    // the transport dies
	inReplay // the new transport numbers its deliveries from 1 again
	inClose  // the channel ends
	numInOps
)

var inOpNames = [numInOps]string{
	"deliver-manual", "deliver-auto", "get-ok", "return", "header", "body",
	"ack", "nack", "reject", "ack-multiple", "nack-multiple", "stale-settle",
	"cut", "replay", "close",
}

// inOp is a step; pick parameterises it.
type inOp struct {
	kind inOpKind
	pick uint8
}

// headerSizes are the body sizes a header declares; the last is past
// wire.MaxBodyBytes.
var headerSizes = [...]uint64{0, 1, 3, 8, 17, 64, 200, wire.MaxBodyBytes + 1}

// loanRec is what the reference knows of one lent buffer: the body it
// carries (the pattern of assembly seq, size bytes) and how it left.
type loanRec struct {
	seq  byte
	size uint64
	done bool   // the body completed on it
	left string // "", "released" or "abandoned"
}

// inboundRef is the reference the model test holds the core to: the loan
// contract in the plainest terms. Every loan leaves exactly once — it is
// released when settled in its own epoch, or when its assembly is cut off,
// fails or cannot be delivered, and abandoned when a cut or close finds it
// held; a settle from an older epoch frees nothing; a completed body is
// exactly as long as its header says.
type inboundRef struct {
	epoch   uint64
	closed  bool
	lastTag uint64 // the current transport's last delivery tag
	seq     byte   // numbers the assemblies, to pattern their bodies

	// the assembly: open once a method began it, headed once its header came
	open, headed, manual bool
	method               wire.Method
	size, got            uint64
	loan                 *[]byte

	held  map[uint64]*[]byte // tag → loan, current epoch
	loans map[*[]byte]*loanRec
}

type inboundModel struct {
	in   inbound
	ref  inboundRef
	lent []*[]byte // by the op under way
}

func newInboundModel() *inboundModel {
	return &inboundModel{
		in:  inbound{held: map[uint64]*[]byte{}},
		ref: inboundRef{held: map[uint64]*[]byte{}, loans: map[*[]byte]*loanRec{}},
	}
}

func (m *inboundModel) lend(n int) *[]byte {
	p := new([]byte)
	*p = make([]byte, 0, n)
	m.lent = append(m.lent, p)
	return p
}

// pattern is byte i of assembly seq's body.
func pattern(seq byte, i uint64) byte { return seq*31 + byte(i)*7 }

func intact(b []byte, seq byte, size uint64) bool {
	if uint64(len(b)) != size {
		return false
	}
	for i := range b {
		if b[i] != pattern(seq, uint64(i)) {
			return false
		}
	}
	return true
}

// step applies op to the core and the reference and compares what left.
func (m *inboundModel) step(op inOp) error {
	r := &m.ref
	var release, abandon []*[]byte // what the reference expects to leave
	dropAsm := func() {
		if r.loan != nil {
			release = append(release, r.loan)
		}
		r.open, r.headed, r.manual, r.method, r.size, r.got, r.loan = false, false, false, nil, 0, 0, nil
	}
	dropHeld := func() {
		for t, p := range r.held {
			abandon = append(abandon, p)
			delete(r.held, t)
		}
	}
	settle := func(epoch, tag uint64, multiple bool) {
		if epoch != r.epoch {
			return
		}
		for t, p := range r.held {
			if t == tag || multiple && (t <= tag || tag == 0) {
				release = append(release, p)
				delete(r.held, t)
			}
		}
	}
	var got content
	var done bool
	var e *Error
	wantDone, wantErr := false, false
	complete := func() {
		if r.loan != nil {
			r.loans[r.loan].done = true
			if r.closed {
				release = append(release, r.loan)
			} else {
				tag := r.method.(*wire.BasicDeliver).DeliveryTag
				if old := r.held[tag]; old != nil {
					abandon = append(abandon, old)
				}
				r.held[tag] = r.loan
			}
			r.loan = nil
		}
		wantDone = !r.closed
	}
	var want wire.Method // of the completed content expected
	var wantSeq byte
	var wantSize uint64

	switch op.kind {
	case inDeliverManual, inDeliverAuto, inGetOk, inReturn:
		dropAsm()
		r.seq++
		var mth wire.Method
		switch op.kind {
		case inGetOk:
			mth = &wire.BasicGetOk{DeliveryTag: uint64(op.pick)}
		case inReturn:
			mth = &wire.BasicReturn{ReplyCode: 312}
		default:
			tag := r.lastTag + 1
			if op.pick%16 == 0 && r.lastTag > 0 {
				tag = uint64(op.pick)%r.lastTag + 1 // a tag the broker reused
			} else {
				r.lastTag = tag
			}
			mth = &wire.BasicDeliver{DeliveryTag: tag}
		}
		r.open, r.method, r.manual = true, mth, op.kind == inDeliverManual
		m.in.begin(mth, r.manual)
	case inHeader:
		size := headerSizes[int(op.pick)%len(headerSizes)]
		switch {
		case size > wire.MaxBodyBytes:
			dropAsm()
			wantErr = true
		case !r.open || r.headed:
			dropAsm()
		default:
			r.headed, r.size = true, size
			want, wantSeq, wantSize = r.method, r.seq, size
			if size == 0 {
				complete()
				dropAsm()
			}
		}
		wantLend := r.headed && r.manual
		got, done, e = m.in.header(&wire.ContentHeader{BodySize: size}, m.lend)
		if wantLend {
			if len(m.lent) != 1 || uint64(cap(*m.lent[0])) != size {
				return fmt.Errorf("header of %d bytes for a manual delivery lent %d buffer(s), want one of that size", size, len(m.lent))
			}
			r.loan = m.lent[0]
			r.loans[r.loan] = &loanRec{seq: r.seq, size: size}
		} else if len(m.lent) != 0 {
			return fmt.Errorf("header of %d bytes lent a buffer (open=%v headed=%v manual=%v)", size, r.open, r.headed, r.manual)
		}
	case inBody:
		var n uint64
		left := r.size - r.got
		switch op.pick % 5 {
		case 0:
			n = left
		case 1:
			n = left / 2
		case 2:
			n = 0
		case 3:
			n = left + 1 + uint64(op.pick%3)
		case 4:
			n = min(left, 1)
		}
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = pattern(r.seq, r.got+uint64(i))
		}
		if r.headed {
			if n > left {
				dropAsm()
				wantErr = true
			} else if r.got += n; r.got == r.size {
				want, wantSeq, wantSize = r.method, r.seq, r.size
				complete()
				dropAsm()
			}
		}
		got, done, e = m.in.body(frame)
	case inAck, inNack, inReject, inAckMany, inNackMany:
		tag := uint64(op.pick) % (r.lastTag + 2)
		multiple := op.kind == inAckMany || op.kind == inNackMany
		settle(r.epoch, tag, multiple)
		m.in.settle(r.epoch, tag, multiple)
	case inStale:
		if r.epoch == 0 {
			return nil
		}
		epoch := r.epoch - 1 - uint64(op.pick)%r.epoch
		tag, multiple := uint64(op.pick>>1)%(r.lastTag+2), op.pick&1 == 1
		settle(epoch, tag, multiple)
		m.in.settle(epoch, tag, multiple)
	case inCut:
		dropAsm()
		dropHeld()
		r.epoch++
		m.in.cut(r.epoch)
	case inReplay:
		r.lastTag = 0
	case inClose:
		dropAsm()
		dropHeld()
		r.closed = true
		m.in.close()
	}
	m.lent = m.lent[:0]

	if (e != nil) != wantErr {
		return fmt.Errorf("error %v, want one: %v", e, wantErr)
	}
	if done != wantDone {
		return fmt.Errorf("completed %v, want %v (closed=%v)", done, wantDone, r.closed)
	}
	if done {
		if got.method != want {
			return fmt.Errorf("completed content of another method")
		}
		if !intact(got.body, wantSeq, wantSize) {
			return fmt.Errorf("completed a %d-byte body under a header declaring %d, or not the bytes sent", len(got.body), wantSize)
		}
	}
	gotRelease, gotAbandon := m.in.out()
	return m.leave(gotRelease, gotAbandon, release, abandon)
}

// leave checks the loans the core let go against the ones the reference
// expects to leave, each the way it expects: every loan leaves once, a
// completed body intact.
func (m *inboundModel) leave(gotRelease, gotAbandon, wantRelease, wantAbandon []*[]byte) error {
	want := map[*[]byte]string{}
	for _, p := range wantRelease {
		want[p] = "released"
	}
	for _, p := range wantAbandon {
		want[p] = "abandoned"
	}
	check := func(got []*[]byte, how string) error {
		for _, p := range got {
			rec := m.ref.loans[p]
			switch {
			case rec == nil:
				return fmt.Errorf("%s a buffer never lent", how)
			case rec.left != "":
				return fmt.Errorf("loan of assembly %d %s after it was %s", rec.seq, how, rec.left)
			case want[p] == "":
				return fmt.Errorf("loan of assembly %d %s, want it kept", rec.seq, how)
			case want[p] != how:
				return fmt.Errorf("loan of assembly %d %s, want it %s", rec.seq, how, want[p])
			case rec.done && !intact((*p)[:rec.size], rec.seq, rec.size):
				return fmt.Errorf("loan of assembly %d %s with its body overwritten", rec.seq, how)
			}
			rec.left = how
			delete(want, p)
		}
		return nil
	}
	if err := check(gotRelease, "released"); err != nil {
		return err
	}
	if err := check(gotAbandon, "abandoned"); err != nil {
		return err
	}
	for p, how := range want {
		return fmt.Errorf("loan of assembly %d not %s", m.ref.loans[p].seq, how)
	}
	return nil
}

// finish closes the channel (again, if the schedule did: an assembly
// begun after close is cut off), after which every loan has left exactly
// once.
func (m *inboundModel) finish() error {
	if err := m.step(inOp{kind: inClose}); err != nil {
		return err
	}
	for _, rec := range m.ref.loans {
		if rec.left == "" {
			return fmt.Errorf("loan of assembly %d never left", rec.seq)
		}
	}
	return nil
}

func runInboundModel(ops []inOp) error {
	m := newInboundModel()
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return fmt.Errorf("op %d (%s, pick %d): %w", i, inOpNames[op.kind], op.pick, err)
		}
	}
	return m.finish()
}

// TestInboundModel drives the receive core through seeded random
// interleavings of deliver / get-ok / return, header, body (split,
// zero-length, overrunning, cut off by a new method or header), single and
// multiple (tag 0) ack / nack / reject, stale-epoch settles, cut, replay and
// close, against inboundRef. Most steps continue the assembly in progress
// (a header after its method, a body frame after its header), so messages
// complete as well as get cut off.
func TestInboundModel(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	weights := [numInOps]int{
		inDeliverManual: 14, inDeliverAuto: 4, inGetOk: 2, inReturn: 2,
		inHeader: 3, inBody: 3, inAck: 8, inNack: 2, inReject: 2, inAckMany: 6, inNackMany: 2,
		inStale: 6, inCut: 3, inReplay: 3, inClose: 1,
	}
	var total int
	for _, w := range weights {
		total += w
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x696e626f756e64))
		m := newInboundModel()
		for i, n := 0, 50+rng.IntN(250); i < n; i++ {
			op := inOp{pick: uint8(rng.Uint32())}
			switch r := &m.ref; {
			case r.open && !r.headed && rng.IntN(3) != 0:
				op.kind = inHeader
				op.pick %= uint8(len(headerSizes) - 1) // the oversized header stays rare
			case r.headed && rng.IntN(4) != 0:
				op.kind = inBody
				if op.pick%5 == 3 && rng.IntN(4) != 0 {
					op.pick++ // an overrun ends the connection: keep it rare
				}
			default:
				k, w := inOpKind(0), rng.IntN(total)
				for w >= weights[k] {
					w -= weights[k]
					k++
				}
				if k == inClose && rng.IntN(4) != 0 {
					k = inDeliverManual // close is rare: most schedules reach finish
				}
				op.kind = k
			}
			if err := m.step(op); err != nil {
				t.Fatalf("seed %d: op %d (%s, pick %d): %v", seed, i, inOpNames[op.kind], op.pick, err)
			}
		}
		if err := m.finish(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// decodeInOps reads a schedule two bytes per step: the kind, then the pick.
func decodeInOps(data []byte) []inOp {
	var ops []inOp
	for ; len(data) >= 2; data = data[2:] {
		ops = append(ops, inOp{kind: inOpKind(data[0] % byte(numInOps)), pick: data[1]})
	}
	return ops
}

// FuzzInbound checks the receive core against inboundRef on arbitrary
// schedules; its seed schedules are under testdata/fuzz/FuzzInbound.
func FuzzInbound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runInboundModel(decodeInOps(data)); err != nil {
			t.Fatal(err)
		}
	})
}
