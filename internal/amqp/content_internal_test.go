package amqp

// Content assembly on the client against frames no well-behaved broker
// sends: a body that overruns its header, a header no buffer should be
// sized from. Both must end the connection with an *Error, leak no
// pooled buffer, and never panic.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"ds2hpc/internal/wire"
)

// scriptedBroker answers a channel.open and a basic.consume (tag "c"),
// then writes the frames the script appended.
func scriptedBroker(t *testing.T, script func(w *wire.Writer)) string {
	return fakeBroker(t, func(w *wire.Writer, channel uint16, m wire.Method) {
		switch m.(type) {
		case *wire.ChannelOpen:
			w.AppendMethodFrame(channel, &wire.ChannelOpenOk{})
		case *wire.BasicConsume:
			w.AppendMethodFrame(channel, &wire.BasicConsumeOk{ConsumerTag: "c"})
			script(w)
		}
	})
}

func contentHeader(t testing.TB, bodySize uint64) []byte {
	t.Helper()
	h, err := wire.EncodeContentHeader(&wire.ContentHeader{ClassID: wire.ClassBasic, BodySize: bodySize})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestClientRejectsContentItCannotTrust: a delivery whose body frames
// overrun the declared size, and one whose header declares 2^62 bytes,
// shut the connection down with a frame error; no delivery reaches the
// consumer and the half-assembled loan is returned.
func TestClientRejectsContentItCannotTrust(t *testing.T) {
	deliver := &wire.BasicDeliver{ConsumerTag: "c", DeliveryTag: 1, RoutingKey: "q"}
	cases := []struct {
		name     string
		bodySize uint64
		frames   []int
	}{
		{"one frame too long", 10, []int{11}},
		{"second frame overruns", 10, []int{6, 6}},
		{"overrun of a large loan", 300 << 10, []int{128 << 10, 128 << 10, 128 << 10}},
		{"absurd declared size", 1 << 62, nil},
	}
	for _, autoAck := range []bool{false, true} {
		for _, tc := range cases {
			base := wire.LoanedBytes()
			url := scriptedBroker(t, func(w *wire.Writer) {
				w.AppendMethodFrame(1, deliver)
				w.AppendRawFrame(wire.FrameHeader, 1, contentHeader(t, tc.bodySize))
				for _, n := range tc.frames {
					w.AppendRawFrame(wire.FrameBody, 1, make([]byte, n))
				}
			})
			c, err := Dial(url)
			if err != nil {
				t.Fatal(err)
			}
			closed := c.NotifyClose(make(chan *Error, 1))
			ch, err := c.Channel()
			if err != nil {
				t.Fatal(err)
			}
			deliveries, err := ch.Consume("q", "c", autoAck, false, false, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case e := <-closed:
				if e == nil || e.Code != wire.ReplyFrameError {
					t.Fatalf("%s (autoAck=%v): connection closed with %v, want a %d frame error", tc.name, autoAck, e, wire.ReplyFrameError)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s (autoAck=%v): connection stayed up", tc.name, autoAck)
			}
			if d, ok := <-deliveries; ok {
				t.Fatalf("%s (autoAck=%v): consumer got a %d-byte delivery", tc.name, autoAck, len(d.Body))
			}
			if got := wire.LoanedBytes(); got != base {
				t.Fatalf("%s (autoAck=%v): %d loaned bytes outstanding, want %d", tc.name, autoAck, got, base)
			}
		}
	}
}

// discardConn is the transport of a connection nothing is read from.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// FuzzClientContent feeds dispatchFrame arbitrary frame streams on a
// channel with a manual-ack consumer, an auto-ack consumer and a return
// listener: whatever arrives, a delivered body is exactly as long as its
// header said, nothing panics, and after shutdown no loan is left.
func FuzzClientContent(f *testing.F) {
	stream := func(m wire.Method, bodySize uint64, frames ...int) []byte {
		w := wire.NewWriter()
		w.AppendMethodFrame(1, m)
		w.AppendRawFrame(wire.FrameHeader, 1, contentHeader(f, bodySize))
		for _, n := range frames {
			w.AppendRawFrame(wire.FrameBody, 1, bytes.Repeat([]byte{0x5A}, n))
		}
		return append([]byte(nil), w.Bytes()...)
	}
	manual := &wire.BasicDeliver{ConsumerTag: "manual", DeliveryTag: 1, RoutingKey: "q"}
	auto := &wire.BasicDeliver{ConsumerTag: "auto", DeliveryTag: 2, RoutingKey: "q"}
	f.Add(stream(manual, 10, 10))
	f.Add(stream(manual, 10, 4, 6))
	f.Add(stream(manual, 0))
	f.Add(stream(auto, 3000, 3000))
	f.Add(stream(manual, 10, 11))
	f.Add(stream(auto, 10, 6, 6))
	f.Add(stream(manual, 1<<62))
	f.Add(stream(&wire.BasicReturn{ReplyCode: 312, ReplyText: "NO_ROUTE", RoutingKey: "q"}, 5, 5))
	f.Add(stream(&wire.BasicGetOk{DeliveryTag: 3, RoutingKey: "q"}, 5, 5))
	f.Add(append(stream(manual, 10, 4), stream(auto, 2, 2)...)) // a header cutting an assembly off

	f.Fuzz(func(t *testing.T, data []byte) {
		base := wire.LoanedBytes()
		c := &Connection{
			conn:     discardConn{},
			out:      wire.NewWriter(),
			channels: map[uint16]*Channel{},
			genCh:    make(chan struct{}),
			done:     make(chan struct{}),
			hbStop:   make(chan struct{}),
		}
		c.frameMax.Store(wire.DefaultFrameMax)
		ch := newChannel(c, 1)
		c.channels[1] = ch
		var want uint64 // BodySize of the header last dispatched
		check := func(d Delivery) {
			if uint64(len(d.Body)) != want {
				t.Errorf("delivered %d body bytes under a header declaring %d", len(d.Body), want)
			}
		}
		ch.subs.add("manual", &clientConsumer{fn: check})
		ch.subs.add("auto", &clientConsumer{fn: check, spec: wire.BasicConsume{NoAck: true}})
		returns := ch.NotifyReturn(make(chan Return, 64))

		fr := wire.NewFrameReader(bytes.NewReader(data), 0)
		for {
			fm, err := fr.ReadFrame()
			if err != nil {
				break
			}
			if fm.Type == wire.FrameHeader && fm.Channel == 1 {
				if h, err := wire.ParseContentHeader(fm.Payload); err == nil {
					if h.BodySize > 1<<22 && h.BodySize <= wire.MaxBodyBytes {
						t.Skip("legal but huge: the fuzzer would only be timing makeslice")
					}
					want = h.BodySize
				}
			}
			if len(returns) == cap(returns) {
				<-returns
			}
			if stop, e := c.dispatchFrame(fm); stop {
				if e == nil {
					t.Error("dispatch stopped the connection without an error")
				}
				break
			}
		}
		c.shutdown(nil)
		if got := wire.LoanedBytes(); got != base {
			t.Errorf("%d loaned bytes outstanding after shutdown, want %d", got, base)
		}
	})
}
