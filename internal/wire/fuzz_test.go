package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// Native fuzz targets for the decoders that face bytes straight off a
// socket. CI runs each for a few seconds (`make fuzz`); `go test` alone
// replays the seed corpus: every method the codec knows, basic.ack and
// basic.nack with multiple set among them.

// FuzzParseMethod: ParseMethod never panics, and whatever it accepts
// re-encodes to a canonical payload that parses back to the same method.
func FuzzParseMethod(f *testing.F) {
	for _, m := range allMethods() {
		payload, err := EncodeMethod(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := ParseMethod(payload)
		if err != nil {
			return
		}
		first, err := EncodeMethod(m)
		if err != nil {
			t.Fatalf("%T parsed but does not encode: %v", m, err)
		}
		again, err := ParseMethod(first)
		if err != nil {
			t.Fatalf("%T does not parse back: %v", m, err)
		}
		// Compared as bytes: a table may carry a NaN, unequal to itself.
		second, err := EncodeMethod(again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("%T round trip diverged (%v):\n%x\n%x", m, err, first, second)
		}
	})
}

// FuzzDecodeReuse: one Decoder and one Slots, reused the way a frame
// reader reuses them, decode a random sequence of method and header
// payloads, and every result equals what a fresh ParseMethod or
// ParseContentHeader makes of the same payload, field for field. A slot
// that keeps a value of an earlier frame — a header without ReplyTo
// decoded after one with it — fails it. The input is a sequence of
// records: a kind byte (even: method, odd: header), a 16-bit length and
// that many payload bytes.
func FuzzDecodeReuse(f *testing.F) {
	record := func(kind byte, payload []byte) []byte {
		return append([]byte{kind, byte(len(payload) >> 8), byte(len(payload))}, payload...)
	}
	method := func(m Method) []byte {
		payload, err := EncodeMethod(m)
		if err != nil {
			f.Fatal(err)
		}
		return record(0, payload)
	}
	header := func(p Properties) []byte {
		payload, err := EncodeContentHeader(&ContentHeader{ClassID: ClassBasic, BodySize: 1024, Properties: p})
		if err != nil {
			f.Fatal(err)
		}
		return record(1, payload)
	}
	var all []byte
	for _, m := range allMethods() {
		all = append(all, method(m)...)
	}
	f.Add(all)
	full := Properties{
		ContentType: "text/plain", ContentEncoding: "gzip", Headers: Table{"seq": int64(3)},
		DeliveryMode: Persistent, Priority: 4, CorrelationID: "c-1", ReplyTo: "reply-q",
		Expiration: "60000", MessageID: "m-1", Timestamp: 99, Type: "t", UserID: "guest", AppID: "bench",
	}
	f.Add(bytes.Join([][]byte{
		method(&BasicPublish{RoutingKey: "q-a"}), header(full),
		method(&BasicPublish{Exchange: "bcast"}), header(Properties{DeliveryMode: Transient}),
		method(&BasicPublish{RoutingKey: "q-a"}), header(Properties{ReplyTo: "reply-q"}),
	}, nil))
	f.Add(bytes.Join([][]byte{
		method(&BasicDeliver{ConsumerTag: "a", DeliveryTag: 1, RoutingKey: "q"}),
		method(&BasicDeliver{ConsumerTag: "b", DeliveryTag: 2, Redelivered: true}),
		method(&BasicAck{DeliveryTag: 2, Multiple: true}), method(&BasicAck{DeliveryTag: 3}),
		method(&BasicNack{DeliveryTag: 4, Multiple: true, Requeue: true}), method(&BasicNack{DeliveryTag: 5}),
		record(0, []byte{0, 60, 0, 40, 0}), // a basic.publish cut short
		method(&BasicPublish{RoutingKey: "q-b", Immediate: true}),
	}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		var s Slots
		for len(data) >= 3 {
			kind, n := data[0], int(data[1])<<8|int(data[2])
			data = data[3:]
			if n > len(data) {
				n = len(data)
			}
			payload := data[:n]
			data = data[n:]
			var got, want any
			var gotErr, wantErr error
			if kind%2 == 0 {
				got, gotErr = d.Method(payload, &s)
				want, wantErr = ParseMethod(payload)
			} else {
				got, gotErr = d.Header(payload, &s)
				want, wantErr = ParseContentHeader(payload)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("reused decoder error %v, fresh parse error %v", gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) && !sameEncoding(t, got, want) {
				t.Fatalf("reused decoder gives %+v, fresh parse %+v", got, want)
			}
		}
	})
}

// sameEncoding compares two decode results by their encodings: a table
// may carry a NaN, which DeepEqual finds unequal to itself.
func sameEncoding(t *testing.T, a, b any) bool {
	encode := func(v any) []byte {
		var out []byte
		var err error
		switch x := v.(type) {
		case Method:
			out, err = EncodeMethod(x)
		case *ContentHeader:
			out, err = EncodeContentHeader(x)
		}
		if err != nil {
			t.Fatalf("%T decoded but does not encode: %v", v, err)
		}
		return out
	}
	return bytes.Equal(encode(a), encode(b))
}

// FuzzFrameReader: a FrameReader over untrusted bytes never panics, never
// returns a payload above its frame limit, returns exactly the bytes that
// were framed, and the payloads it accepts go through the method and
// content-header parsers without a panic.
func FuzzFrameReader(f *testing.F) {
	var stream bytes.Buffer
	for _, m := range allMethods() {
		w := NewWriter()
		w.AppendContentFrames(7, m, &Properties{ContentType: "text/plain", DeliveryMode: 2}, []byte("body"), 0)
		if err := w.Err(); err != nil {
			f.Fatal(err)
		}
		f.Add(w.Bytes())
		stream.Write(w.Bytes())
	}
	f.Add(stream.Bytes())
	f.Add([]byte{FrameHeartbeat, 0, 0, 0, 0, 0, 0, FrameEnd})
	const frameMax = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), frameMax)
		var framed bytes.Buffer
		for {
			fm, err := fr.ReadFrame()
			if err != nil {
				break
			}
			if len(fm.Payload) > frameMax {
				t.Fatalf("payload of %d bytes passed a %d-byte limit", len(fm.Payload), frameMax)
			}
			if err := WriteFrame(&framed, fm); err != nil {
				t.Fatal(err)
			}
			switch fm.Type {
			case FrameMethod:
				ParseMethod(fm.Payload)
			case FrameHeader:
				ParseContentHeader(fm.Payload)
			}
		}
		if !bytes.HasPrefix(data, framed.Bytes()) {
			t.Fatalf("frames read are not the bytes framed:\n%x\n%x", data, framed.Bytes())
		}
	})
}
