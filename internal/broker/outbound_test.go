package broker

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ds2hpc/internal/wire"
)

// outOpKind is one step a channel takes its outbound core through.
type outOpKind uint8

const (
	opIssue         outOpKind = iota
	opAckOne                  // basic.ack
	opAckMany                 // basic.ack{multiple}
	opNackOne                 // basic.nack{requeue}
	opNackMany                // basic.nack{multiple, requeue}
	opDiscardOne              // basic.nack
	opDiscardMany             // basic.nack{multiple}
	opRejectRequeue           // basic.reject{requeue}
	opRejectDiscard           // basic.reject
	opAckAll                  // basic.ack{multiple} with tag 0: everything
	opRepeat                  // the previous verdict again
	opTeardown                // the channel closes
	numOutOps
)

// outOp is a step. For opIssue, pick chooses the delivery's queue and
// consumer; for a verdict, its tag, counted down from two past the last
// tag issued, so verdicts name outstanding, settled, never-issued and
// future tags alike.
type outOp struct {
	kind outOpKind
	pick uint8
}

// outPair is a (queue, consumer) a delivery comes from; cons is nil for
// basic.get. The test's queues and consumers are identities only: the
// core never calls them.
type outPair struct {
	queue *Queue
	cons  *consumer
}

func (p outPair) String() string {
	if p.cons == nil {
		return p.queue.Name + "/get"
	}
	return p.queue.Name + "/" + p.cons.tag
}

// outWay is how a delivery left the core.
type outWay struct {
	ack, requeue bool
}

// outGroup is one (queue, consumer)'s share of a result, by tag.
type outGroup struct {
	way  outWay
	tags []uint64
	offs []uint64
}

// outModel runs an outbound core against a map of outstanding deliveries,
// the reference: a verdict resolves, in tag order, the deliveries it
// covers that are still in the map, and teardown requeues what is left.
type outModel struct {
	o     outbound
	pairs []outPair
	ref   map[uint64]outPair // tag → the pair of a delivery still outstanding
	last  uint64             // the last tag issued
	tags  map[*Message]uint64
	left  map[uint64]int // tag → times it left the core
	// credits counts, per pair with a consumer and per way, the
	// deliveries whose settlement returns a credit; want what the
	// reference resolved.
	credits, want map[outPair]map[outWay]int

	prevTag            uint64 // the previous verdict, for opRepeat
	prevMultiple, prev bool
	prevWay            outWay
}

func newOutModel() *outModel {
	m := &outModel{
		ref: map[uint64]outPair{}, tags: map[*Message]uint64{}, left: map[uint64]int{},
		credits: map[outPair]map[outWay]int{}, want: map[outPair]map[outWay]int{},
	}
	for _, q := range []*Queue{{Name: "a"}, {Name: "b"}} {
		for _, c := range []*consumer{{tag: "c0"}, {tag: "c1"}, nil} {
			m.pairs = append(m.pairs, outPair{q, c})
		}
	}
	return m
}

// off is the segment-log offset of delivery tag: queue "a" is durable.
func (m *outModel) off(p outPair, tag uint64) uint64 {
	if p.queue.Name == "a" {
		return tag * 10
	}
	return offNone
}

func (m *outModel) step(op outOp) error {
	switch op.kind {
	case opIssue:
		p := m.pairs[int(op.pick)%len(m.pairs)]
		m.last++
		msg := &Message{}
		m.tags[msg], m.ref[m.last] = m.last, p
		m.o.issue(m.last, p.queue, p.cons, msg, m.off(p, m.last))
	case opTeardown:
		var tags []uint64
		for t := range m.ref {
			tags = append(tags, t)
		}
		if err := m.check("teardown", m.o.teardown(), tags, outWay{requeue: true}); err != nil {
			return err
		}
	case opRepeat:
		if m.prev {
			return m.verdict(m.prevTag, m.prevMultiple, m.prevWay)
		}
	default:
		tag := m.last + 2 - uint64(op.pick)%(m.last+3)
		if op.kind == opAckAll {
			tag = 0
		}
		multiple := op.kind == opAckMany || op.kind == opNackMany || op.kind == opDiscardMany || op.kind == opAckAll
		way := outWay{
			ack:     op.kind == opAckOne || op.kind == opAckMany || op.kind == opAckAll,
			requeue: op.kind == opNackOne || op.kind == opNackMany || op.kind == opRejectRequeue,
		}
		m.prevTag, m.prevMultiple, m.prevWay, m.prev = tag, multiple, way, true
		return m.verdict(tag, multiple, way)
	}
	return m.invariants()
}

func (m *outModel) verdict(tag uint64, multiple bool, way outWay) error {
	var tags []uint64
	for t := range m.ref {
		if t == tag || multiple && (tag == 0 || t <= tag) {
			tags = append(tags, t)
		}
	}
	name := fmt.Sprintf("verdict {tag %d multiple=%v %+v}", tag, multiple, way)
	if err := m.check(name, m.o.settle(tag, multiple, way.ack, way.requeue), tags, way); err != nil {
		return err
	}
	return m.invariants()
}

// check compares a result with what the reference resolves: the
// deliveries tags, each leaving once and by way, grouped per pair in tag
// order.
func (m *outModel) check(name string, got []settleGroup, tags []uint64, way outWay) error {
	slices.Sort(tags)
	want := map[outPair]*outGroup{}
	for _, t := range tags {
		p := m.ref[t]
		delete(m.ref, t)
		g := want[p]
		if g == nil {
			g = &outGroup{way: way}
			want[p] = g
		}
		g.tags = append(g.tags, t)
		g.offs = append(g.offs, m.off(p, t))
		if p.cons != nil {
			if m.want[p] == nil {
				m.want[p] = map[outWay]int{}
			}
			m.want[p][way]++
		}
	}
	have := map[outPair]*outGroup{}
	for _, g := range got {
		p := outPair{g.queue, g.cons}
		if have[p] != nil {
			return fmt.Errorf("%s: two groups for %v", name, p)
		}
		h := &outGroup{way: outWay{g.ack, g.requeue}, offs: slices.Clone(g.offs)}
		for _, msg := range g.msgs {
			t, ok := m.tags[msg]
			if !ok {
				return fmt.Errorf("%s: result holds message %p, never issued", name, msg)
			}
			m.left[t]++
			if m.left[t] > 1 {
				return fmt.Errorf("%s: delivery %d left %d times", name, t, m.left[t])
			}
			h.tags = append(h.tags, t)
		}
		have[p] = h
		if p.cons != nil {
			if m.credits[p] == nil {
				m.credits[p] = map[outWay]int{}
			}
			m.credits[p][h.way] += len(g.msgs)
		}
	}
	if !reflect.DeepEqual(have, want) {
		return fmt.Errorf("%s resolved %s, want %s", name, dump(have), dump(want))
	}
	return nil
}

func dump(gs map[outPair]*outGroup) string {
	var s []string
	for p, g := range gs {
		s = append(s, fmt.Sprintf("[%v %+v tags %v offs %v]", p, g.way, g.tags, g.offs))
	}
	slices.Sort(s)
	return strings.Join(s, "")
}

// invariants checks the core's bookkeeping after a step: it counts what
// the reference holds, keeps q in tag order, and keeps q within twice the
// number outstanding.
func (m *outModel) invariants() error {
	if m.o.live != len(m.ref) {
		return fmt.Errorf("core counts %d outstanding, reference %d", m.o.live, len(m.ref))
	}
	if len(m.o.q) > 2*m.o.live {
		return fmt.Errorf("core holds %d entries for %d outstanding", len(m.o.q), m.o.live)
	}
	for i := m.o.head + 1; i < len(m.o.q); i++ {
		if m.o.q[i].tag <= m.o.q[i-1].tag {
			return fmt.Errorf("core entries out of tag order: %d after %d", m.o.q[i].tag, m.o.q[i-1].tag)
		}
	}
	return nil
}

// finish tears the channel down and checks that every delivery left the
// core exactly once, and that every consumer got a credit back, of the
// right kind, for each of its deliveries.
func (m *outModel) finish() error {
	if err := m.step(outOp{kind: opTeardown}); err != nil {
		return err
	}
	if len(m.o.q) != 0 {
		return fmt.Errorf("core holds %d entries after teardown", len(m.o.q))
	}
	for t := uint64(1); t <= m.last; t++ {
		if m.left[t] != 1 {
			return fmt.Errorf("delivery %d left %d times, want once", t, m.left[t])
		}
	}
	if !reflect.DeepEqual(m.credits, m.want) {
		return fmt.Errorf("credits returned %v, want %v", m.credits, m.want)
	}
	return nil
}

// runOutModel drives a fresh core through ops and then finish.
func runOutModel(ops []outOp) error {
	m := newOutModel()
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return fmt.Errorf("op %d (kind %d, pick %d): %w", i, op.kind, op.pick, err)
		}
	}
	return m.finish()
}

// TestOutboundModel drives the outbound core through seeded random
// interleavings of deliveries and verdicts — single and multiple acks,
// nacks with and without requeue, rejects, tag 0, stale, unknown and
// repeated tags — and teardowns, against a map of outstanding deliveries:
// every delivery leaves exactly once and the way its verdict says,
// requeues keep tag order, and each consumer gets back a credit per
// delivery resolved.
func TestOutboundModel(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	weights := [numOutOps]int{
		opIssue: 40, opAckOne: 10, opAckMany: 8, opNackOne: 5, opNackMany: 4,
		opDiscardOne: 3, opDiscardMany: 2, opRejectRequeue: 3, opRejectDiscard: 2,
		opAckAll: 1, opRepeat: 5, opTeardown: 1,
	}
	var total int
	for _, w := range weights {
		total += w
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x6f7574626f756e64))
		ops := make([]outOp, 50+rng.IntN(250))
		for i := range ops {
			n := rng.IntN(total)
			k := outOpKind(0)
			for n >= weights[k] {
				n -= weights[k]
				k++
			}
			ops[i] = outOp{kind: k, pick: uint8(rng.Uint32())}
		}
		if err := runOutModel(ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzOutbound checks the core against the same reference on arbitrary
// schedules, two bytes per step: the kind, then the pick. Its seed
// schedules are under testdata/fuzz/FuzzOutbound.
func FuzzOutbound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []outOp
		for ; len(data) >= 2; data = data[2:] {
			ops = append(ops, outOp{kind: outOpKind(data[0] % byte(numOutOps)), pick: data[1]})
		}
		if err := runOutModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOutboundHeldHead holds the channel's first delivery unsettled while
// 100,000 later ones are issued and acked one by one: the core's backing
// slice stays within twice the number outstanding plus a small constant,
// instead of growing with every tag behind the held one.
func TestOutboundHeldHead(t *testing.T) {
	var o outbound
	q, c := &Queue{Name: "q"}, &consumer{}
	o.issue(1, q, c, &Message{}, offNone)
	for tag := uint64(2); tag <= 100_001; tag++ {
		o.issue(tag, q, c, &Message{}, offNone)
		if gs := o.settle(tag, false, true, false); len(gs) != 1 || len(gs[0].msgs) != 1 {
			t.Fatalf("ack %d settled %v", tag, gs)
		}
		if o.live != 1 || cap(o.q) > 2*o.live+8 {
			t.Fatalf("after ack %d: %d outstanding in a backing slice of %d", tag, o.live, cap(o.q))
		}
	}
	if gs := o.settle(1, false, true, false); len(gs) != 1 || len(gs[0].msgs) != 1 || o.live != 0 {
		t.Fatalf("held delivery settled %v, %d left", gs, o.live)
	}
}

// TestChannelCloseRequeuesInDeliveryOrder closes a channel with 16
// basic.get deliveries outstanding: they go back to the head of their
// queue in delivery order, each marked redelivered.
func TestChannelCloseRequeuesInDeliveryOrder(t *testing.T) {
	const n = 16
	sc := dispatchConn(t, Config{})
	dispatchMethod(t, sc, 1, &wire.QueueDeclare{Queue: "order-q"})
	q, _ := sc.vh.Queue("order-q")
	for i := 0; i < n; i++ {
		if err := q.Publish(&Message{RoutingKey: "order-q", Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		dispatchMethod(t, sc, 1, &wire.BasicGet{Queue: "order-q"})
	}
	if q.Len() != 0 {
		t.Fatalf("%d messages left after %d gets", q.Len(), n)
	}
	dispatchMethod(t, sc, 1, &wire.ChannelClose{})
	for i := 0; i < n; i++ {
		m, _, redelivered, _, ok := q.Get()
		if !ok {
			t.Fatalf("message %d not requeued", i)
		}
		if m.Body[0] != byte(i) || !redelivered {
			t.Fatalf("requeued message %d is body %d (redelivered=%v), want body %d redelivered", i, m.Body[0], redelivered, i)
		}
	}
}

// TestChannelCloseRequeuesOutboxInOrder closes a channel whose consumer
// had all 8 messages moved off the ready ring, onto its pending ring or
// already into the channel's outbound core by the delivery loop: they go
// back to the head of their queue in the order they were queued.
func TestChannelCloseRequeuesOutboxInOrder(t *testing.T) {
	const n = 8
	sc := dispatchConn(t, Config{})
	dispatchMethod(t, sc, 1, &wire.QueueDeclare{Queue: "outbox-q"})
	q, _ := sc.vh.Queue("outbox-q")
	for i := 0; i < n; i++ {
		if err := q.Publish(&Message{RoutingKey: "outbox-q", Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	dispatchMethod(t, sc, 1, &wire.BasicConsume{Queue: "outbox-q", ConsumerTag: "c"})
	if q.Len() != 0 {
		t.Fatalf("%d messages left in the queue, want all %d with the consumer", q.Len(), n)
	}
	dispatchMethod(t, sc, 1, &wire.ChannelClose{})
	for i := 0; i < n; i++ {
		m, _, _, _, ok := q.Get()
		if !ok {
			t.Fatalf("message %d not requeued", i)
		}
		if m.Body[0] != byte(i) {
			t.Fatalf("requeued message %d is body %d, want %d", i, m.Body[0], i)
		}
	}
}

// TestChannelCloseUnderDeliveryLoopRequeuesInOrder closes a channel right
// after its manual-ack consumer subscribed, while the connection's delivery
// loop runs: whatever the loop had taken, issued or not, and whatever the
// consumer still held comes back to the queue before channel.close
// returns, in publish order.
func TestChannelCloseUnderDeliveryLoopRequeuesInOrder(t *testing.T) {
	const n = 64
	iters := 3000
	if raceEnabled {
		iters = 300
	}
	failed := 0
	var first string
	for it := 0; it < iters; it++ {
		sc := dispatchConn(t, Config{})
		dispatchMethod(t, sc, 1, &wire.QueueDeclare{Queue: "loop-q"})
		q, _ := sc.vh.Queue("loop-q")
		for i := 0; i < n; i++ {
			if err := q.Publish(&Message{RoutingKey: "loop-q", Body: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		dispatchMethod(t, sc, 1, &wire.BasicConsume{Queue: "loop-q", ConsumerTag: "c"})
		dispatchMethod(t, sc, 1, &wire.ChannelClose{})
		for i := 0; i < n; i++ {
			m, _, _, _, ok := q.Get()
			var why string
			switch {
			case !ok:
				why = fmt.Sprintf("message %d not back in the queue", i)
			case m.Body[0] != byte(i):
				why = fmt.Sprintf("position %d holds body %d", i, m.Body[0])
			}
			if why != "" {
				if failed == 0 {
					first = why
				}
				failed++
				break
			}
		}
		sc.srv.Close()
	}
	if failed > 0 {
		t.Fatalf("%d of %d iterations did not requeue in order; first: %s", failed, iters, first)
	}
}

// TestGetAfterTeardownRequeues: a basic.get that pops its message after a
// server close has torn its channel down from another goroutine puts the
// message back instead of issuing it to the torn-down core, where nothing
// would ever settle or requeue it.
func TestGetAfterTeardownRequeues(t *testing.T) {
	sc := dispatchConn(t, Config{})
	dispatchMethod(t, sc, 1, &wire.QueueDeclare{Queue: "late-get-q"})
	q, _ := sc.vh.Queue("late-get-q")
	if err := q.Publish(&Message{RoutingKey: "late-get-q", Body: []byte("m")}); err != nil {
		t.Fatal(err)
	}
	sc.channel(1).teardown() // as srvConn.shutdown does, leaving the serve loop running
	dispatchMethod(t, sc, 1, &wire.BasicGet{Queue: "late-get-q"})
	if q.Len() != 1 {
		t.Fatalf("queue holds %d messages after the late get, want it back", q.Len())
	}
}

// TestConsumeAfterTeardownLeavesNoConsumer: a basic.consume that a server
// close's teardown overtook from another goroutine registers nothing, so
// no consumer outlives its channel holding the queue's messages on its
// ring.
func TestConsumeAfterTeardownLeavesNoConsumer(t *testing.T) {
	sc := dispatchConn(t, Config{})
	dispatchMethod(t, sc, 1, &wire.QueueDeclare{Queue: "late-consume-q"})
	q, _ := sc.vh.Queue("late-consume-q")
	if err := q.Publish(&Message{RoutingKey: "late-consume-q", Body: []byte("m")}); err != nil {
		t.Fatal(err)
	}
	sc.channel(1).teardown() // as srvConn.shutdown does, leaving the serve loop running
	dispatchMethod(t, sc, 1, &wire.BasicConsume{Queue: "late-consume-q", ConsumerTag: "c"})
	if n, ready := q.ConsumerCount(), q.Len(); n != 0 || ready != 1 {
		t.Fatalf("late consume left %d consumers and %d ready messages, want 0 and 1", n, ready)
	}
}
