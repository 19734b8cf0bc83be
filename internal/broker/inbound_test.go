package broker

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"ds2hpc/internal/wire"
)

// inOpKind is one step a channel takes its inbound core through.
type inOpKind uint8

const (
	inSelect   inOpKind = iota // confirm.select
	inBegin                    // basic.publish; cuts off a publish under assembly
	inHeader                   // content header: no body, a small one, or one past the limit
	inBody                     // body frame: the rest, part of it, or more than is left
	inAck                      // the serve goroutine's ack of a routed publish
	inNack                     // its nack
	inLate                     // a ClusterConfirm: of an open, a resolved or an unknown tag
	inFlush                    // the pre-read flush, or ClusterConfirm's
	inTeardown                 // the channel closes
	inReopen                   // a new channel, mostly in confirm mode, takes over the schedule
	numInOps
)

// inOp is a step; pick chooses the header's body size, the body frame's
// length, or a verdict's tag and outcome.
type inOp struct {
	kind inOpKind
	pick uint8
}

// inModel runs an inbound core against a reference of what the broker
// decided, and reads the frames the core emits the way a client does: a
// single verdict resolves its tag, a multiple one every tag up to its own
// that has no verdict yet. Each channel lifetime is checked when it ends.
type inModel struct {
	in inbound

	// The reference of the current channel.
	confirm, closed bool
	seq             uint64              // the last tag handed out
	busy            bool                // a publish is under assembly
	method          wire.BasicPublish   // its method
	tag             uint64              // its tag, 0 outside confirm mode
	cur             *Message            // its message, nil until the header
	size            int                 // the body size its header declared
	routed          []uint64            // completed tags the broker has not decided
	decided         map[uint64]bool     // tag → the verdict the broker decided
	seen            map[uint64]bool     // tag → the verdict the client read
	pubs            int                 // publishes begun, across channels
	left            map[*Message]int    // message lent → times it left the core
	way             map[*Message]string // message lent → how it first left
}

func newInModel() *inModel {
	m := &inModel{left: map[*Message]int{}, way: map[*Message]string{}}
	m.reset()
	return m
}

// reset starts a new channel.
func (m *inModel) reset() {
	m.in = inbound{}
	m.confirm, m.closed, m.seq, m.busy, m.tag, m.cur, m.routed = false, false, 0, false, 0, nil, nil
	m.decided, m.seen = map[uint64]bool{}, map[uint64]bool{}
}

// lend stands in for NewMessage: an unmanaged message whose body has room
// for exactly the declared size, recorded so the model sees it leave.
func (m *inModel) lend(exchange, key string, props wire.Properties, size int) *Message {
	msg := &Message{Exchange: exchange, RoutingKey: key, Props: props, Body: make([]byte, 0, size)}
	m.left[msg] = 0
	m.cur, m.size = msg, size
	return msg
}

// leave records msg leaving the core, once, by way.
func (m *inModel) leave(msg *Message, way string) error {
	n, ok := m.left[msg]
	if !ok {
		return fmt.Errorf("%s handed out message %p, never lent", way, msg)
	}
	if n > 0 {
		return fmt.Errorf("message %p left by %s after leaving by %s", msg, way, m.way[msg])
	}
	m.left[msg]++
	m.way[msg] = way
	return nil
}

func (m *inModel) step(op inOp) error {
	switch op.kind {
	case inSelect:
		m.in.confirm = true
		m.confirm = true
	case inBegin:
		m.pubs++
		method := wire.BasicPublish{RoutingKey: strconv.Itoa(m.pubs), Mandatory: m.pubs%2 == 0}
		err := m.in.begin(&method)
		switch {
		case m.closed:
			return expectErr("begin after teardown", err, errClosed)
		case m.busy:
			if err := expectErr("begin mid-assembly", err, errCutOff); err != nil {
				return err
			}
			return m.end() // a framing error: the connection ends
		case err != nil:
			return fmt.Errorf("begin: %v", err)
		}
		m.busy, m.method, m.tag, m.cur = true, method, 0, nil
		if m.confirm {
			m.seq++
			m.tag = m.seq
		}
	case inHeader:
		size := 1 + int(op.pick/8)%16
		switch {
		case op.pick%32 == 31:
			size = wire.MaxBodyBytes + 1
		case op.pick%8 == 0:
			size = 0
		}
		awaiting := m.busy && m.cur == nil // lend sets m.cur
		p, done, err := m.in.header(&wire.ContentHeader{ClassID: wire.ClassBasic, BodySize: uint64(size)}, m.lend)
		switch {
		case !awaiting:
			if err := expectErr("header without a publish awaiting one", err, errNoMethod); err != nil {
				return err
			}
			return m.end()
		case size > wire.MaxBodyBytes:
			if err := expectErr("header past the limit", err, errBodyLimit); err != nil {
				return err
			}
			return m.end() // a channel exception
		case err != nil:
			return fmt.Errorf("header of %d bytes: %v", size, err)
		}
		return m.completed("header", p, done)
	case inBody:
		rest := 0
		if m.cur != nil {
			rest = m.size - len(m.cur.Body)
		}
		n := rest
		switch op.pick % 16 {
		case 8, 9, 10, 11, 12, 13, 14:
			if rest > 1 {
				n = 1 + int(op.pick/16)%(rest-1)
			}
		case 15:
			n = rest + 1 + int(op.pick/16)%3
		}
		p, done, err := m.in.body(make([]byte, n))
		switch {
		case m.cur == nil:
			if err := expectErr("body without header", err, errNoHeader); err != nil {
				return err
			}
			return m.end()
		case n > rest:
			if err == nil {
				return fmt.Errorf("body frame of %d bytes with %d to come accepted", n, rest)
			}
			return m.end()
		case err != nil:
			return fmt.Errorf("body frame of %d bytes with %d to come: %v", n, rest, err)
		}
		return m.completed("body", p, done)
	case inAck, inNack:
		if len(m.routed) == 0 {
			return nil
		}
		i := int(op.pick) % len(m.routed)
		tag := m.routed[i]
		m.routed = slices.Delete(m.routed, i, i+1)
		m.decided[tag] = op.kind == inAck
		m.in.resolve(tag, op.kind == inAck)
	case inLate:
		tag, ok := uint64(op.pick/2)%(m.seq+3), op.pick%2 == 0
		if m.busy && tag == m.tag {
			return nil // no verdict names a publish before it is routed
		}
		if i := slices.Index(m.routed, tag); i >= 0 {
			m.routed = slices.Delete(m.routed, i, i+1)
			m.decided[tag] = ok
		}
		m.in.resolve(tag, ok)
	case inFlush:
		return m.flush()
	case inTeardown:
		return m.end()
	case inReopen:
		if err := m.end(); err != nil {
			return err
		}
		if err := m.finish(); err != nil {
			return err
		}
		m.reset()
		if op.pick%4 != 0 {
			return m.step(inOp{kind: inSelect})
		}
	}
	return nil
}

func expectErr(name string, err, want error) error {
	if !errors.Is(err, want) {
		return fmt.Errorf("%s: got error %v, want %v", name, err, want)
	}
	return nil
}

// completed checks what a header or body step returned: nothing until the
// body is complete, then the publish begun, with its tag and exactly the
// declared body, which leaves the core to be routed.
func (m *inModel) completed(name string, p publish, done bool) error {
	if len(m.cur.Body) > m.size {
		return fmt.Errorf("%s: body holds %d bytes, header declared %d", name, len(m.cur.Body), m.size)
	}
	if !done {
		if p != (publish{}) {
			return fmt.Errorf("%s returned %+v before the body completed", name, p)
		}
		if len(m.cur.Body) == m.size {
			return fmt.Errorf("%s: body of %d bytes complete, publish not returned", name, m.size)
		}
		return nil
	}
	if p.msg != m.cur || p.method != m.method || p.tag != m.tag || len(m.cur.Body) != m.size {
		return fmt.Errorf("%s completed %+v with %d body bytes, want message %p, tag %d, method %+v and %d bytes",
			name, p, len(m.cur.Body), m.cur, m.tag, m.method, m.size)
	}
	if p.msg.RoutingKey != m.method.RoutingKey {
		return fmt.Errorf("%s: message routed by %q, publish by %q", name, p.msg.RoutingKey, m.method.RoutingKey)
	}
	if err := m.leave(p.msg, "completion"); err != nil {
		return err
	}
	if m.tag != 0 {
		m.routed = append(m.routed, m.tag)
	}
	m.busy, m.cur = false, nil
	return nil
}

// flush reads the frames the core emits as a client would.
func (m *inModel) flush() error {
	frames := m.in.flush()
	if m.closed && len(frames) > 0 {
		return fmt.Errorf("torn-down core emitted %+v", frames)
	}
	var prev *confirmFrame
	for i := range frames {
		f := &frames[i]
		if prev != nil && f.tag <= prev.tag {
			return fmt.Errorf("frame %+v after %+v: out of tag order", *f, *prev)
		}
		lo := f.tag
		if f.multiple {
			lo = 1
		}
		var got []uint64
		for t := lo; t <= f.tag && t <= m.seq; t++ {
			if _, ok := m.seen[t]; ok {
				continue
			}
			want, ok := m.decided[t]
			switch {
			case !ok:
				return fmt.Errorf("frame %+v covers tag %d, which has no verdict", *f, t)
			case want == f.nack:
				return fmt.Errorf("frame %+v gives tag %d the wrong verdict", *f, t)
			}
			m.seen[t] = want
			got = append(got, t)
		}
		switch {
		case len(got) == 0:
			return fmt.Errorf("frame %+v resolves nothing (seen %v)", *f, m.seen)
		case f.multiple && len(got) == 1:
			return fmt.Errorf("multiple frame %+v resolves only tag %d", *f, got[0])
		case prev != nil && prev.nack == f.nack && !m.openBelow(f.tag):
			return fmt.Errorf("frames %+v and %+v could be one", *prev, *f)
		}
		prev = f
	}
	return nil
}

// openBelow reports whether a tag below tag has no verdict yet.
func (m *inModel) openBelow(tag uint64) bool {
	for t := uint64(1); t < tag; t++ {
		if _, ok := m.decided[t]; !ok {
			return true
		}
	}
	return false
}

// end closes the channel as the serve goroutine does on a channel.close,
// a channel exception or a framing error: what was decided is flushed
// first, and the core hands back the message of a publish cut off
// mid-assembly.
func (m *inModel) end() error {
	if m.closed {
		return nil
	}
	if err := m.flush(); err != nil {
		return err
	}
	cut := m.in.teardown()
	m.closed, m.busy, m.routed = true, false, nil
	switch {
	case cut != m.cur:
		return fmt.Errorf("teardown returned message %p, want the one under assembly, %p", cut, m.cur)
	case cut != nil:
		if err := m.leave(cut, "teardown"); err != nil {
			return err
		}
	}
	m.cur = nil
	if again := m.in.teardown(); again != nil {
		return fmt.Errorf("second teardown returned message %p", again)
	}
	return nil
}

// finish checks an ended channel: every tag the broker decided was read
// exactly once, with its verdict, and no other tag was.
func (m *inModel) finish() error {
	for t, ok := range m.decided {
		if got, read := m.seen[t]; !read || got != ok {
			return fmt.Errorf("tag %d decided %v, client read %v (read=%v)", t, ok, got, read)
		}
	}
	for t := range m.seen {
		if _, ok := m.decided[t]; !ok {
			return fmt.Errorf("client read a verdict on tag %d, never decided", t)
		}
	}
	return nil
}

// runInModel drives a fresh core through ops, then closes it.
func runInModel(ops []inOp) error {
	m := newInModel()
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return fmt.Errorf("op %d (kind %d, pick %d): %w", i, op.kind, op.pick, err)
		}
	}
	return m.close()
}

// close ends the last channel and checks that every message lent left
// the core exactly once.
func (m *inModel) close() error {
	if err := m.step(inOp{kind: inReopen}); err != nil {
		return fmt.Errorf("final close: %w", err)
	}
	for msg, n := range m.left {
		if n != 1 {
			return fmt.Errorf("message %p (%q) left the core %d times, want once", msg, msg.RoutingKey, n)
		}
	}
	return nil
}

// inWeights are TestInboundModel's odds for the next step, by what the
// channel is doing: mostly well-formed content, now and then a frame out
// of place, and verdicts and flushes throughout.
var inWeights = [...][numInOps]int{
	inIdle:     {inSelect: 1, inBegin: 24, inHeader: 1, inBody: 1, inAck: 10, inNack: 2, inLate: 4, inFlush: 5, inTeardown: 1},
	inNoHeader: {inBegin: 1, inHeader: 30, inBody: 1, inAck: 6, inNack: 1, inLate: 3, inFlush: 3},
	inInBody:   {inBegin: 1, inHeader: 1, inBody: 30, inAck: 6, inNack: 1, inLate: 3, inFlush: 3},
	inTornDown: {inSelect: 1, inBegin: 1, inHeader: 1, inBody: 1, inLate: 3, inFlush: 3, inReopen: 6},
}

const (
	inIdle     = iota // no publish under assembly
	inNoHeader        // a publish awaits its header
	inInBody          // a publish awaits body frames
	inTornDown
)

// next draws the step after the model's current state.
func (m *inModel) next(rng *rand.Rand) inOp {
	state := inIdle
	switch {
	case m.closed:
		state = inTornDown
	case m.busy && m.cur == nil:
		state = inNoHeader
	case m.busy:
		state = inInBody
	}
	w := &inWeights[state]
	total := 0
	for _, n := range w {
		total += n
	}
	n := rng.IntN(total)
	k := inOpKind(0)
	for n >= w[k] {
		n -= w[k]
		k++
	}
	return inOp{kind: k, pick: uint8(rng.Uint32())}
}

// TestInboundModel drives the inbound core through seeded schedules of
// confirm selects, publishes assembled whole, split, overrun or cut off
// by the next publish, bodiless and oversize headers, local acks and
// nacks, bridged verdicts that arrive late, flushes, teardowns and
// reopened channels. Read the way a client reads them, the frames give
// every decided publish its verdict exactly once, cover no open tag, say
// it in the fewest frames and say nothing after teardown; every message
// leaves the core exactly once, with no more body than its header
// declared.
func TestInboundModel(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x696e626f756e64))
		m := newInModel()
		ops := []inOp{{kind: inSelect}}
		_ = m.step(ops[0])
		for n := 100 + rng.IntN(400); len(ops) < n; {
			op := m.next(rng)
			ops = append(ops, op)
			if err := m.step(op); err != nil {
				t.Fatalf("seed %d, op %d (kind %d, pick %d): %v", seed, len(ops)-1, op.kind, op.pick, err)
			}
		}
		if err := m.close(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzInbound checks the core against the same reference on arbitrary
// schedules, two bytes per step: the kind, then the pick. Its seed
// schedules are under testdata/fuzz/FuzzInbound.
func FuzzInbound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []inOp
		for ; len(data) >= 2; data = data[2:] {
			ops = append(ops, inOp{kind: inOpKind(data[0] % byte(numInOps)), pick: data[1]})
		}
		if err := runInModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}
