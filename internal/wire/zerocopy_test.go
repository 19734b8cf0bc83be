package wire

import (
	"bytes"
	"testing"
)

// TestAppendContentFramesZCByteIdentical checks the vectored builder
// emits byte-for-byte what the copying builder emits, across body sizes
// below the borrow threshold, above it, and spanning multiple frames.
func TestAppendContentFramesZCByteIdentical(t *testing.T) {
	props := Properties{ContentType: "application/octet-stream", MessageID: "zc-1"}
	for _, size := range []int{0, 1, zcMinBorrow - 1, zcMinBorrow, 4096, DefaultFrameMax, DefaultFrameMax*2 + 777} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i)
		}
		m := &BasicDeliver{ConsumerTag: "c", DeliveryTag: 9, Exchange: "e", RoutingKey: "k"}

		plain := NewWriter()
		framesPlain := plain.AppendContentFrames(7, m, &props, body, DefaultFrameMax)
		var wantBuf bytes.Buffer
		if err := plain.FlushFrames(&wantBuf, framesPlain); err != nil {
			t.Fatal(err)
		}

		zc := NewWriter()
		framesZC := zc.AppendContentFramesZC(7, m, &props, body, DefaultFrameMax)
		var gotBuf bytes.Buffer
		if err := zc.FlushFrames(&gotBuf, framesZC); err != nil {
			t.Fatal(err)
		}

		if framesPlain != framesZC {
			t.Fatalf("size %d: frame count %d (zc) != %d (plain)", size, framesZC, framesPlain)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("size %d: vectored output differs from copying output", size)
		}
	}
}

// TestZCWriterReuseAfterFlush checks a writer alternates between borrowed
// and copied batches without cross-contamination.
func TestZCWriterReuseAfterFlush(t *testing.T) {
	w := NewWriter()
	props := Properties{}
	big := bytes.Repeat([]byte{0xAB}, 8192)

	var first bytes.Buffer
	frames := w.AppendContentFramesZC(1, &BasicDeliver{DeliveryTag: 1}, &props, big, DefaultFrameMax)
	if err := w.FlushFrames(&first, frames); err != nil {
		t.Fatal(err)
	}

	// Mutate the borrowed body after the flush: the next batch must not
	// see it.
	for i := range big {
		big[i] = 0xCD
	}
	var second bytes.Buffer
	frames = w.AppendContentFramesZC(1, &BasicDeliver{DeliveryTag: 2}, &props, bytes.Repeat([]byte{0xEF}, 64), DefaultFrameMax)
	if err := w.FlushFrames(&second, frames); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(second.Bytes(), []byte{0xAB, 0xAB}) || bytes.Contains(second.Bytes(), []byte{0xCD, 0xCD}) {
		t.Fatal("second batch leaked bytes from the first batch's borrowed body")
	}
}

// TestAppendWriterKeepsOrderAndBorrows checks frame sets encoded in
// writers of their own and appended to one leave as the concatenation of
// what each would have flushed alone — copied bytes, borrow segments and
// the bytes after a splice point all at their shifted offsets — on a
// destination with gathered writes, and that the flush drops the borrows.
func TestAppendWriterKeepsOrderAndBorrows(t *testing.T) {
	props := Properties{MessageID: "aw"}
	small := bytes.Repeat([]byte{0x11}, 700)
	big := bytes.Repeat([]byte{0x22}, 3*zcMinBorrow)
	var want bytes.Buffer
	dst := NewWriter()
	frames := 0
	for i, body := range [][]byte{small, big, small, big} {
		src := NewWriter()
		n := src.AppendContentFramesZC(uint16(i+1), &BasicPublish{RoutingKey: "k"}, &props, body, DefaultFrameMax)
		dst.AppendWriter(src)
		frames += n
		if err := src.FlushFrames(&want, n); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Len() != want.Len() {
		t.Fatalf("appended writer holds %d bytes, want %d", dst.Len(), want.Len())
	}
	var got bytes.Buffer
	if err := dst.FlushFrames(&got, frames); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("appended frame sets did not flush as their concatenation")
	}
	if dst.Len() != 0 || len(dst.segs) != 0 {
		t.Fatalf("after the flush the writer still holds %d bytes, %d borrows", dst.Len(), len(dst.segs))
	}
}

// TestLoanBufAccounting locks in the loan API contract: LoanBuf adds the
// loaned capacity to the outstanding gauge, ReleaseBuf returns it (and
// recycles), AbandonBuf returns it without recycling, and nil is safe.
func TestLoanBufAccounting(t *testing.T) {
	base := LoanedBytes()
	p := LoanBuf(1000)
	if cap(*p) < 1000 {
		t.Fatalf("loan cap = %d, want >= 1000", cap(*p))
	}
	if got := LoanedBytes(); got != base+int64(cap(*p)) {
		t.Fatalf("outstanding = %d, want %d", got, base+int64(cap(*p)))
	}
	ReleaseBuf(p)
	if got := LoanedBytes(); got != base {
		t.Fatalf("outstanding after release = %d, want %d", got, base)
	}

	p2 := LoanBuf(4096)
	AbandonBuf(p2)
	if got := LoanedBytes(); got != base {
		t.Fatalf("outstanding after abandon = %d, want %d", got, base)
	}

	ReleaseBuf(nil)
	AbandonBuf(nil)
	if got := LoanedBytes(); got != base {
		t.Fatalf("outstanding after nil ops = %d, want %d", got, base)
	}
}
