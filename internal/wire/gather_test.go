package wire

// What FlushFrames does with borrowed bodies on a destination without
// writev (tls.Conn, netem.Conn — every connection but a raw TCP socket):
// small pieces gathered into few writes, large chunks written in place.

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// recWriter is a non-TCP destination that records every Write: a private
// copy of the bytes plus the slice it was handed (for pointer identity).
type recWriter struct {
	stream bytes.Buffer
	args   [][]byte
}

func (r *recWriter) Write(p []byte) (int, error) {
	r.args = append(r.args, p)
	return r.stream.Write(p)
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

var gatherProps = Properties{ContentType: "application/octet-stream", MessageID: "g-1"}

// TestGatheredSmallTripletIsOneWrite: a 4 KiB and a 16 KiB content
// triplet — borrowed bodies, so three pieces each — leave in one Write.
func TestGatheredSmallTripletIsOneWrite(t *testing.T) {
	for _, size := range []int{4 << 10, 16 << 10} {
		body := patterned(size)
		w := NewWriter()
		frames := w.AppendContentFramesZC(1, &BasicPublish{RoutingKey: "q"}, &gatherProps, body, DefaultFrameMax)
		if len(w.segs) != 1 {
			t.Fatalf("%d B body: %d borrow segments, want 1", size, len(w.segs))
		}
		var dst recWriter
		if err := w.FlushFrames(&dst, frames); err != nil {
			t.Fatal(err)
		}
		if len(dst.args) != 1 {
			t.Fatalf("%d B body left in %d writes, want 1", size, len(dst.args))
		}
	}
}

// TestGatheredLargeBodyWritesChunksInPlace: every 128 KiB chunk of a
// 1 MiB body reaches Write as the caller's own slice — no body byte is
// copied — with only the framing bytes between chunks gathered, and a
// warm writer allocates nothing per flush.
func TestGatheredLargeBodyWritesChunksInPlace(t *testing.T) {
	body := patterned(1 << 20)
	m := &BasicPublish{RoutingKey: "q"}
	w := NewWriter()
	var dst recWriter
	frames := w.AppendContentFramesZC(1, m, &gatherProps, body, DefaultFrameMax)
	if err := w.FlushFrames(&dst, frames); err != nil {
		t.Fatal(err)
	}
	chunks, framing := 0, 0
	for _, p := range dst.args {
		if len(p) >= gatherMax {
			off := chunks * DefaultFrameMax
			if len(p) != DefaultFrameMax || &p[0] != &body[off] {
				t.Fatalf("write of %d bytes is not chunk %d of the caller's body", len(p), chunks)
			}
			chunks++
		} else {
			framing += len(p)
		}
	}
	if chunks != len(body)/DefaultFrameMax {
		t.Fatalf("%d chunks written in place, want %d", chunks, len(body)/DefaultFrameMax)
	}
	if framing > 512 {
		t.Fatalf("%d bytes gathered around a borrowed body, want framing only", framing)
	}

	allocs := testing.AllocsPerRun(50, func() {
		frames := w.AppendContentFramesZC(1, m, &gatherProps, body, DefaultFrameMax)
		if err := w.FlushFrames(io.Discard, frames); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm 1 MiB flush allocates %.1f objects, want 0", allocs)
	}
}

// TestGatheredBatchStaysUnderCap: a delivery batch of borrowed bodies
// never puts more than gatherMax into one Write, whatever the mix.
func TestGatheredBatchStaysUnderCap(t *testing.T) {
	w := NewWriter()
	var want bytes.Buffer
	plain := NewWriter()
	frames := 0
	for i, size := range []int{4096, 16384, 100, 40000, 2048, 30000, 8192, 60000, 3000, 16384} {
		body := patterned(size)
		d := &BasicDeliver{ConsumerTag: "c", DeliveryTag: uint64(i + 1), RoutingKey: "q"}
		frames += w.AppendContentFramesZC(1, d, &gatherProps, body, DefaultFrameMax)
		plain.AppendContentFrames(1, d, &gatherProps, body, DefaultFrameMax)
	}
	if err := plain.FlushFrames(&want, frames); err != nil {
		t.Fatal(err)
	}
	var dst recWriter
	if err := w.FlushFrames(&dst, frames); err != nil {
		t.Fatal(err)
	}
	for i, p := range dst.args {
		if len(p) > gatherMax {
			t.Fatalf("write %d carries %d bytes, cap is %d", i, len(p), gatherMax)
		}
	}
	if min := want.Len()/gatherMax + 1; len(dst.args) > 2*min {
		t.Fatalf("%d bytes left in %d writes, want about %d", want.Len(), len(dst.args), min)
	}
	if !bytes.Equal(dst.stream.Bytes(), want.Bytes()) {
		t.Fatal("gathered batch differs from the copying builder's output")
	}
}

// TestGatheredEqualsWritevEqualsCopy: for every body size class the
// gathered stream, the stream a real *net.TCPConn receives through
// writev, and AppendContentFrames' output are the same bytes.
func TestGatheredEqualsWritevEqualsCopy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, ok := cli.(*net.TCPConn); !ok {
		t.Fatalf("dialed %T, want *net.TCPConn", cli)
	}

	m := &BasicDeliver{ConsumerTag: "c", DeliveryTag: 9, Exchange: "e", RoutingKey: "k"}
	for _, size := range []int{0, zcMinBorrow - 1, zcMinBorrow, 16 << 10, gatherMax - 1, gatherMax, DefaultFrameMax, 1<<20 + 777} {
		body := patterned(size)
		plain := NewWriter()
		frames := plain.AppendContentFrames(7, m, &gatherProps, body, DefaultFrameMax)
		var want bytes.Buffer
		if err := plain.FlushFrames(&want, frames); err != nil {
			t.Fatal(err)
		}

		w := NewWriter()
		var dst recWriter
		w.AppendContentFramesZC(7, m, &gatherProps, body, DefaultFrameMax)
		if err := w.FlushFrames(&dst, frames); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.stream.Bytes(), want.Bytes()) {
			t.Fatalf("size %d: gathered stream differs from the copying builder's", size)
		}

		got := make([]byte, want.Len())
		read := make(chan error, 1)
		go func() { _, err := io.ReadFull(srv, got); read <- err }()
		w.AppendContentFramesZC(7, m, &gatherProps, body, DefaultFrameMax)
		if err := w.FlushFrames(cli, frames); err != nil {
			t.Fatal(err)
		}
		if err := <-read; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("size %d: writev stream differs from the copying builder's", size)
		}
	}
}

// TestBufPoolBodyClasses: a buffer from each body class goes back into
// that class (and comes out of it again), loans above the ceiling are
// plain allocations that putBuf drops.
func TestBufPoolBodyClasses(t *testing.T) {
	for class, size := range bufClassSizes {
		if size <= DefaultFrameMax+4096 {
			continue
		}
		if got := bufClass(size - 1); got != class {
			t.Fatalf("a %d B request maps to class %d, want %d", size-1, got, class)
		}
		p := getBuf(size - 1)
		if cap(*p) != size {
			t.Fatalf("class %d buffer has cap %d, want %d", class, cap(*p), size)
		}
		// Drain what earlier tests left, then put ours and take it back:
		// sync.Pool hands a goroutine its own last Put first. Under the
		// race detector it drops a Put now and then, hence the retries.
		for bufPools[class].Get() != nil {
		}
		landed := false
		for try := 0; try < 32 && !landed; try++ {
			putBuf(p)
			q, _ := bufPools[class].Get().(*[]byte)
			if q != nil && q != p {
				t.Fatalf("class %d pool returned a foreign buffer", class)
			}
			landed = q == p
		}
		if !landed {
			t.Fatalf("class %d: putBuf did not land in its class pool", class)
		}
	}
	top := bufClassSizes[len(bufClassSizes)-1]
	if bufClass(top+1) != -1 {
		t.Fatalf("a request above %d B has a class", top)
	}
	over := getBuf(top + 1)
	putBuf(over)
	for class := range bufPools {
		if q, _ := bufPools[class].Get().(*[]byte); q == over {
			t.Fatalf("oversize buffer was pooled in class %d", class)
		}
	}
}
