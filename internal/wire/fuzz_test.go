package wire

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the two decoders that face bytes straight off a
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
