package amqp

import (
	"fmt"
	"slices"

	"ds2hpc/internal/wire"
)

// subscriptions is a channel's replay record: what a new transport must
// re-establish for the channel. That is confirm mode, the prefetch in
// force, and the consumers in subscription order, each under the
// basic.qos it subscribed with. It does no I/O and takes no lock; the
// channel drives it under mu. Every caller opens one consumer per
// channel, so a tag is found by scanning the ordered slice.
type subscriptions struct {
	id      uint16 // the channel's, for generated tags
	confirm bool
	qos     wire.BasicQos // the prefetch in force; zero is the broker's default
	seq     int           // the last generated tag's number
	cons    []*clientConsumer
}

// clientConsumer is one registered consumer: the basic.consume it was
// subscribed with and the prefetch in force then, both replayed on every
// new transport, and the callback the owner hands each delivery to. The
// spec's ack mode decides whether delivery bodies may live on pooled
// buffers (manual ack has a resolution point to release at; autoAck
// hands body ownership to the application outright). A Consume
// consumer's callback is the channel adapter, which sends on deliveries;
// cancel, closed by Cancel, releases a send blocked on it.
type clientConsumer struct {
	spec       wire.BasicConsume
	qos        wire.BasicQos
	fn         func(Delivery)
	deliveries chan Delivery
	cancel     chan struct{}
	cancelled  bool // under the channel's mu
}

// add registers cc under tag, or under a generated tag no consumer of the
// channel holds if tag is empty, with the prefetch in force. A tag still
// registered, even cancelled and awaiting its cancel-ok, is refused.
func (s *subscriptions) add(tag string, cc *clientConsumer) (string, error) {
	if tag != "" && s.find(tag) != nil {
		return "", fmt.Errorf("amqp: duplicate consumer tag %q", tag)
	}
	for tag == "" || s.find(tag) != nil {
		s.seq++
		tag = fmt.Sprintf("ctag-%d-%d", s.id, s.seq)
	}
	cc.spec.ConsumerTag, cc.qos = tag, s.qos
	s.cons = append(s.cons, cc)
	return tag, nil
}

// find returns tag's consumer, or nil.
func (s *subscriptions) find(tag string) *clientConsumer {
	for _, cc := range s.cons {
		if cc.spec.ConsumerTag == tag {
			return cc
		}
	}
	return nil
}

// drop unregisters cc, if it is registered.
func (s *subscriptions) drop(cc *clientConsumer) {
	s.cons = slices.DeleteFunc(s.cons, func(c *clientConsumer) bool { return c == cc })
}

// replay returns the calls that re-establish the consumers on a new
// transport, whose channel starts at the broker's default prefetch: each
// live consumer's basic.consume in subscription order, preceded by a
// basic.qos whenever its prefetch differs from the last one sent, and
// last the prefetch in force if it differs from that one. A consume is
// &cc.spec, so the caller can tell which consumer it subscribes.
func (s *subscriptions) replay() []wire.Method {
	var dst []wire.Method
	var sent wire.BasicQos
	qos := func(q wire.BasicQos) {
		if q != sent {
			sent = q
			dst = append(dst, &q)
		}
	}
	for _, cc := range s.cons {
		if !cc.cancelled {
			qos(cc.qos)
			dst = append(dst, &cc.spec)
		}
	}
	qos(s.qos)
	return dst
}
