package amqp

import (
	"encoding/binary"
	"testing"

	"ds2hpc/internal/wire"
)

// TestAllocsClientDeliveryDispatch locks in the client's per-message path
// at zero allocations once warm: a delivery dispatched from its method,
// header and body frames into a manual-ack callback consumer, which acks
// it; a publish; and the broker's confirm of it, fanned out to a
// listener. Frames decode into the channel's slots, the ack and the
// publish encode from the connection's scratch, and the confirm fan-out
// reuses the channel's. The frames are encoded ahead and their tags
// patched, so the test allocates nothing itself.
func TestAllocsClientDeliveryDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector; zero-alloc assertion not meaningful")
	}
	c := &Connection{
		conn:     discardConn{},
		out:      wire.NewWriter(),
		channels: map[uint16]*Channel{},
		genCh:    make(chan struct{}),
		done:     make(chan struct{}),
		hbStop:   make(chan struct{}),
	}
	c.flush = c.flushSoon
	c.frameMax.Store(wire.DefaultFrameMax)
	ch := newChannel(c, 1)
	c.channels[1] = ch
	ch.confirmMode = true
	confirms := ch.NotifyPublish(make(chan Confirmation, 1))
	delivered := 0
	ch.consumers["c"] = &clientConsumer{fn: func(d Delivery) {
		delivered++
		if err := d.Ack(false); err != nil {
			t.Error(err)
		}
	}}

	frame := func(ftype byte, payload []byte) wire.Frame {
		return wire.Frame{Type: ftype, Channel: 1, Payload: payload}
	}
	deliver, err := wire.EncodeMethod(&wire.BasicDeliver{ConsumerTag: "c", RoutingKey: "q"})
	if err != nil {
		t.Fatal(err)
	}
	header, err := wire.EncodeContentHeader(&wire.ContentHeader{
		ClassID: wire.ClassBasic, BodySize: 1024,
		Properties: wire.Properties{ContentType: "application/octet-stream", ReplyTo: "reply-q", Timestamp: 12345},
	})
	if err != nil {
		t.Fatal(err)
	}
	confirm, err := wire.EncodeMethod(&wire.BasicAck{Multiple: true})
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1024)
	frames := []wire.Frame{frame(wire.FrameMethod, deliver), frame(wire.FrameHeader, header), frame(wire.FrameBody, body)}
	const deliverTagAt = 4 + 2 // class and method ids, then the one-byte consumer tag "c"
	var tag uint64
	cycle := func() {
		tag++
		binary.BigEndian.PutUint64(deliver[deliverTagAt:], tag)
		for _, f := range frames {
			if stop, e := c.dispatchFrame(f, false); stop {
				t.Fatalf("delivery dispatch stopped the connection: %v", e)
			}
		}
		if err := ch.Publish("", "q", false, false, Publishing{Body: body}); err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(confirm[4:], tag)
		if stop, e := c.dispatchFrame(frame(wire.FrameMethod, confirm), false); stop {
			t.Fatalf("confirm dispatch stopped the connection: %v", e)
		}
		if cf := <-confirms; cf.DeliveryTag != tag || !cf.Ack {
			t.Fatalf("confirm %+v, want ack of %d", cf, tag)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the pools, the slots' strings and the scratch
	}
	if got := testing.AllocsPerRun(200, cycle); got > 0 {
		t.Fatalf("client message path allocates %.1f objects/op, want 0", got)
	}
	if want := 8 + 201; delivered != want || len(ch.loans) != 0 {
		t.Fatalf("%d deliveries reached the consumer (want %d), %d body loans outstanding", delivered, want, len(ch.loans))
	}
	c.shutdown(nil)
}
