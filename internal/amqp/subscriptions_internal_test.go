package amqp

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"ds2hpc/internal/wire"
)

// subOpKind is one step a channel takes its replay record through.
type subOpKind uint8

const (
	subQos      subOpKind = iota // Qos
	subConsume                   // Consume under a named or generated tag
	subFail                      // a Consume whose call fails: rolled back
	subCancel                    // Cancel
	subCancelOk                  // the broker's cancel-ok for a cancelled tag
	subReplay                    // a new transport's replay
	numSubOps
)

// subOp is a step; pick chooses its prefetch or its tag.
type subOp struct {
	kind subOpKind
	pick uint8
}

// subNames are the named tags a Consume may ask for: a few that repeat,
// and two that a generated tag would also take.
var subNames = []string{"a", "b", "c", "ctag-1-1", "ctag-1-2"}

// subPrefetches are the windows a Qos may set; 0 is the broker's default.
var subPrefetches = []uint16{0, 1, 2, 100}

// brokerSubs is a broker channel as far as subscriptions go: basic.qos
// sets the window, a basic.consume takes the window in force, and
// basic.cancel ends a consumer.
type brokerSubs struct {
	qos  wire.BasicQos
	cons []brokerConsumer
}

type brokerConsumer struct {
	tag string
	qos wire.BasicQos
}

func (b *brokerSubs) apply(m wire.Method) {
	switch x := m.(type) {
	case *wire.BasicQos:
		b.qos = *x
	case *wire.BasicConsume:
		b.cons = append(b.cons, brokerConsumer{tag: x.ConsumerTag, qos: b.qos})
	case *wire.BasicCancel:
		b.cons = slices.DeleteFunc(b.cons, func(c brokerConsumer) bool { return c.tag == x.ConsumerTag })
	}
}

// subRef is the reference the model test holds the record to: calls is
// the literal log of every basic.qos, basic.consume and basic.cancel the
// application's calls put on the wire, never compacted, and reg the tags
// registered on the channel in registration order, each with whether it
// was cancelled. Replaying calls into a fresh broker channel is what the
// application asked for; the record's replay must leave a fresh broker
// channel in the same state.
type subRef struct {
	calls     []wire.Method
	reg       []refSub
	generated map[string]bool
}

type refSub struct {
	tag       string
	cancelled bool
}

func (r *subRef) index(tag string) int {
	return slices.IndexFunc(r.reg, func(s refSub) bool { return s.tag == tag })
}

// subsModel runs a record against the reference, failing at the first
// divergence.
type subsModel struct {
	s   subscriptions
	ref subRef
}

func (m *subsModel) step(op subOp) error {
	switch op.kind {
	case subQos:
		q := wire.BasicQos{PrefetchCount: subPrefetches[op.pick%4], Global: op.pick&4 != 0}
		m.s.qos = q
		m.ref.calls = append(m.ref.calls, &q)
	case subConsume, subFail:
		tag := ""
		if op.pick%4 != 0 {
			tag = subNames[int(op.pick/4)%len(subNames)]
		}
		cc := &clientConsumer{spec: wire.BasicConsume{Queue: "q"}}
		got, err := m.s.add(tag, cc)
		switch taken := tag != "" && m.ref.index(tag) >= 0; {
		case taken && err == nil:
			return fmt.Errorf("duplicate tag %q accepted", tag)
		case taken:
			return nil
		case err != nil:
			return fmt.Errorf("consume %q: %v", tag, err)
		case tag != "" && got != tag:
			return fmt.Errorf("consume %q registered as %q", tag, got)
		case tag == "" && (m.ref.index(got) >= 0 || m.ref.generated[got]):
			return fmt.Errorf("generated tag %q is not unique", got)
		case cc.spec.ConsumerTag != got || cc.qos != m.s.qos:
			return fmt.Errorf("consumer %q holds tag %q under %+v, want the prefetch in force %+v", got, cc.spec.ConsumerTag, cc.qos, m.s.qos)
		}
		if tag == "" {
			m.ref.generated[got] = true
		}
		if op.kind == subFail {
			m.s.drop(cc)
			if m.s.find(got) != nil {
				return fmt.Errorf("rolled-back consumer %q still registered", got)
			}
			return nil
		}
		spec := cc.spec
		m.ref.calls = append(m.ref.calls, &spec)
		m.ref.reg = append(m.ref.reg, refSub{tag: got})
	case subCancel:
		tag := "unknown"
		if i := int(op.pick) % (len(m.ref.reg) + 1); i < len(m.ref.reg) {
			tag = m.ref.reg[i].tag
			m.ref.reg[i].cancelled = true
		}
		if cc := m.s.find(tag); cc != nil { // as Channel.Cancel does
			cc.cancelled = true
		}
		m.ref.calls = append(m.ref.calls, &wire.BasicCancel{ConsumerTag: tag})
	case subCancelOk:
		var cancelled []string
		for _, r := range m.ref.reg {
			if r.cancelled {
				cancelled = append(cancelled, r.tag)
			}
		}
		tag := "unknown"
		if len(cancelled) > 0 {
			tag = cancelled[int(op.pick)%len(cancelled)]
			i := m.ref.index(tag)
			m.ref.reg = slices.Delete(m.ref.reg, i, i+1)
		}
		m.s.drop(m.s.find(tag)) // as the owner does on basic.cancel-ok
	case subReplay:
		return m.check()
	}
	return nil
}

// check replays the record into a fresh broker channel and the literal
// log into another: the same consumers, in subscription order, under the
// same windows, and the same window in force at the end. The replay sends
// no cancelled consumer, each consume is its consumer's own spec, and it
// is at most two calls per live consumer plus one.
func (m *subsModel) check() error {
	calls := m.s.replay()
	live := 0
	for _, r := range m.ref.reg {
		if !r.cancelled {
			live++
		}
	}
	if len(calls) > 2*live+1 {
		return fmt.Errorf("replay is %d calls for %d live consumers", len(calls), live)
	}
	var got, want brokerSubs
	for _, c := range m.ref.calls {
		want.apply(c)
	}
	for _, c := range calls {
		if spec, ok := c.(*wire.BasicConsume); ok {
			switch cc := m.s.find(spec.ConsumerTag); {
			case cc == nil || &cc.spec != spec:
				return fmt.Errorf("replay subscribes %q with a spec no registered consumer holds", spec.ConsumerTag)
			case cc.cancelled:
				return fmt.Errorf("replay subscribes cancelled consumer %q", spec.ConsumerTag)
			}
		}
		got.apply(c)
	}
	if got.qos != want.qos || !slices.Equal(got.cons, want.cons) {
		return fmt.Errorf("replay leaves window %+v and consumers %+v, the call log %+v and %+v", got.qos, got.cons, want.qos, want.cons)
	}
	return nil
}

// runSubsModel drives a fresh record through ops and replays it at the end.
func runSubsModel(ops []subOp) error {
	m := &subsModel{s: subscriptions{id: 1}, ref: subRef{generated: map[string]bool{}}}
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return fmt.Errorf("op %d (kind %d, pick %d): %w", i, op.kind, op.pick, err)
		}
	}
	return m.check()
}

// TestSubscriptionsModel drives the replay record through seeded random
// interleavings of Qos, Consume (named, generated, duplicate and
// colliding tags), failed consumes, Cancel, cancel-ok and replays,
// against subRef: a replay re-establishes exactly what the uncompacted
// call log does, each consumer under the window it subscribed with.
func TestSubscriptionsModel(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	weights := [numSubOps]int{
		subQos: 6, subConsume: 8, subFail: 2, subCancel: 3, subCancelOk: 3, subReplay: 2,
	}
	var total int
	for _, w := range weights {
		total += w
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7375627363726962))
		ops := make([]subOp, 20+rng.IntN(120))
		for i := range ops {
			n := rng.IntN(total)
			k := subOpKind(0)
			for n >= weights[k] {
				n -= weights[k]
				k++
			}
			ops[i] = subOp{kind: k, pick: uint8(rng.Uint32())}
		}
		if err := runSubsModel(ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzSubscriptions checks the replay record against subRef on arbitrary
// schedules, two bytes per step (the kind, then the pick); its seed
// schedules are under testdata/fuzz/FuzzSubscriptions.
func FuzzSubscriptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []subOp
		for ; len(data) >= 2; data = data[2:] {
			ops = append(ops, subOp{kind: subOpKind(data[0] % byte(numSubOps)), pick: data[1]})
		}
		if err := runSubsModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}
