package broker

import (
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/wire"
)

// TestNoDeliveryAfterCancelOk: once a client reads basic.cancel-ok, no
// basic.deliver for that consumer tag may follow it. Each iteration
// publishes 64 messages, consumes them without acks and cancels the
// consumer as soon as consume-ok arrives, so the delivery loop is taking
// and writing batches when the cancel is read; a queue.delete after the
// cancel is the sentinel that ends the iteration's frames. A delivery
// for a cancelled tag that still reaches the wire after its -ok shows up
// after the cancel-ok, after the sentinel, or in a later iteration.
func TestNoDeliveryAfterCancelOk(t *testing.T) {
	iterations := 500
	if raceEnabled {
		iterations = 2500
	}
	p := newConfirmPeer(t, Config{}, false)
	cancelled := map[string]bool{}
	late := 0
	var first string
	for i := 0; i < iterations; i++ {
		q, tag := fmt.Sprintf("cancel-q-%d", i), fmt.Sprintf("cancel-c-%d", i)
		p.c.SetDeadline(time.Now().Add(10 * time.Second))
		p.method(1, &wire.QueueDeclare{Queue: q})
		for j := 0; j < 64; j++ {
			p.publish("", q, false)
		}
		p.method(1, &wire.BasicConsume{Queue: q, ConsumerTag: tag, NoAck: true})
		p.flush()
		bad := false
	frames:
		for {
			switch m := p.next().(type) {
			case *wire.BasicConsumeOk:
				// Cancel at once: the delivery loop is taking and
				// writing batches while the broker reads it.
				p.method(1, &wire.BasicCancel{ConsumerTag: tag})
				p.method(1, &wire.QueueDelete{Queue: q})
				p.flush()
			case *wire.BasicDeliver:
				if cancelled[m.ConsumerTag] && !bad {
					bad = true
					if first == "" {
						first = fmt.Sprintf("iteration %d: basic.deliver (delivery tag %d) for %q after its cancel-ok", i, m.DeliveryTag, m.ConsumerTag)
					}
				}
			case *wire.BasicCancelOk:
				cancelled[m.ConsumerTag] = true
			case *wire.QueueDeleteOk:
				break frames
			}
		}
		if bad {
			late++
		}
	}
	if late > 0 {
		t.Fatalf("%d of %d iterations saw a delivery after cancel-ok; first: %s", late, iterations, first)
	}
}
