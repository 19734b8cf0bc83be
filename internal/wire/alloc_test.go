package wire

import (
	"testing"
)

// loopReader replays a byte sequence forever, so a FrameReader can be
// driven through an arbitrary number of steady-state reads.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// contentFrameBytes encodes one method+header+body frame triplet.
func contentFrameBytes(t testing.TB, body []byte) []byte {
	t.Helper()
	w := NewWriter()
	props := Properties{ContentType: "application/octet-stream", Timestamp: 12345}
	w.AppendContentFrames(3, &BasicDeliver{
		ConsumerTag: "ctag-1-1", DeliveryTag: 7, RoutingKey: "ws-q-0",
	}, &props, body, DefaultFrameMax)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Bytes()...)
}

// TestAllocsFrameEncode locks in the pooled-writer win: encoding a full
// content frame triplet through a pooled Writer allocates nothing in
// steady state.
func TestAllocsFrameEncode(t *testing.T) {
	body := make([]byte, 2048)
	props := Properties{ContentType: "application/octet-stream", Timestamp: 12345}
	deliver := BasicDeliver{ConsumerTag: "ctag-1-1", DeliveryTag: 7, RoutingKey: "ws-q-0"}
	// Warm the writer pool.
	for i := 0; i < 4; i++ {
		w := GetWriter()
		w.AppendContentFrames(3, &deliver, &props, body, DefaultFrameMax)
		PutWriter(w)
	}
	got := testing.AllocsPerRun(200, func() {
		w := GetWriter()
		w.AppendContentFrames(3, &deliver, &props, body, DefaultFrameMax)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		PutWriter(w)
	})
	if got > 0 {
		t.Fatalf("content-frame encode allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsFrameDecode locks in the pooled read-buffer win: steady-state
// frame reads recycle payload buffers through the pool and allocate
// nothing per frame.
func TestAllocsFrameDecode(t *testing.T) {
	stream := contentFrameBytes(t, make([]byte, 2048))
	fr := NewFrameReader(&loopReader{data: stream}, 0)
	// Warm the pool and the bufio layer.
	for i := 0; i < 16; i++ {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("frame decode allocates %.1f objects/op, want 0", got)
	}
}

// TestAllocsMethodRoundTrip pins the per-message cost of method and header
// decoding. Through one reused Decoder and Slots — how the broker and the
// client read frames — a steady stream of the hot frames allocates
// nothing: the reader is the Decoder's own, the targets are the slots,
// and a string that repeats keeps the slot's copy. The ParseMethod and
// ParseContentHeader wrappers allocate what they return.
func TestAllocsMethodRoundTrip(t *testing.T) {
	var methods [][]byte
	for _, m := range []Method{
		&BasicPublish{RoutingKey: "ws-q-0", Mandatory: true},
		&BasicDeliver{ConsumerTag: "ctag-1-1", DeliveryTag: 7, Exchange: "bcast", RoutingKey: "ws-q-0"},
		&BasicAck{DeliveryTag: 9, Multiple: true},
		&BasicNack{DeliveryTag: 10, Requeue: true},
	} {
		payload, err := EncodeMethod(m)
		if err != nil {
			t.Fatal(err)
		}
		methods = append(methods, payload)
	}
	header, err := EncodeContentHeader(&ContentHeader{
		ClassID:  ClassBasic,
		BodySize: 2048,
		Properties: Properties{
			ContentType: "application/octet-stream", ReplyTo: "reply-q",
			DeliveryMode: Persistent, Timestamp: 12345,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var d Decoder
	var s Slots
	decode := func() {
		for _, p := range methods {
			if _, err := d.Method(p, &s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Header(header, &s); err != nil {
			t.Fatal(err)
		}
	}
	decode() // the first frame of a stream allocates its strings
	if got := testing.AllocsPerRun(200, decode); got != 0 {
		t.Fatalf("decoding into reused slots allocates %.1f objects/op, want 0", got)
	}

	got := testing.AllocsPerRun(200, func() {
		if _, err := ParseMethod(methods[0]); err != nil {
			t.Fatal(err)
		}
	})
	// The Decoder, the method struct, the routing-key string.
	if got > 3 {
		t.Fatalf("basic.publish parse allocates %.1f objects/op, want <= 3", got)
	}
	got = testing.AllocsPerRun(200, func() {
		if _, err := ParseContentHeader(header); err != nil {
			t.Fatal(err)
		}
	})
	// The header struct and the reply-to string; the content type is interned.
	if got > 2 {
		t.Fatalf("content-header parse allocates %.1f objects/op, want <= 2", got)
	}
}

// TestInternedStringsStayCanonical guards the intern table: parsing a
// well-known constant string must return the canonical instance without
// allocating a fresh copy.
func TestInternedStringsStayCanonical(t *testing.T) {
	w := NewWriter()
	w.ShortStr("application/octet-stream")
	got := testing.AllocsPerRun(100, func() {
		r := NewReader(w.Bytes())
		if s := r.ShortStr(); s != "application/octet-stream" {
			t.Fatalf("parsed %q", s)
		}
	})
	// Only the Reader itself may allocate; the string must be interned.
	if got > 1 {
		t.Fatalf("interned parse allocates %.1f objects/op, want <= 1", got)
	}
}
