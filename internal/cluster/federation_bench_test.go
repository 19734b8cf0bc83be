package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/wire"
)

// fakeHandshake completes the server side of a federation link handshake
// on nc and returns the frame reader positioned after confirm.select-ok,
// or nil on any failure. Shared by every fake master of the link tests
// and the benchmark.
func fakeHandshake(nc net.Conn) *wire.FrameReader {
	var hdr [8]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return nil
	}
	fr := wire.NewFrameReader(nc, wire.DefaultFrameMax+1024)
	w := wire.NewWriter()
	send := func(ch uint16, m wire.Method) bool {
		w.AppendMethodFrame(ch, m)
		return w.FlushFrames(nc, 1) == nil
	}
	expect := func() bool { // skip to the next method frame
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return false
			}
			if f.Type == wire.FrameMethod {
				return true
			}
		}
	}
	if !send(0, &wire.ConnectionStart{VersionMajor: 0, VersionMinor: 9, Mechanisms: "PLAIN", Locales: "en_US"}) {
		return nil
	}
	if !expect() { // start-ok
		return nil
	}
	if !send(0, &wire.ConnectionTune{ChannelMax: 2047, FrameMax: wire.DefaultFrameMax}) {
		return nil
	}
	if !expect() { // tune-ok
		return nil
	}
	if !expect() { // open
		return nil
	}
	if !send(0, &wire.ConnectionOpenOk{}) {
		return nil
	}
	if !expect() { // channel.open
		return nil
	}
	if !send(1, &wire.ChannelOpenOk{}) {
		return nil
	}
	if !expect() { // confirm.select
		return nil
	}
	if !send(1, &wire.ConfirmSelectOk{}) {
		return nil
	}
	return fr
}

// isPublish reports whether f is a basic.publish method frame.
func isPublish(f wire.Frame) bool {
	return f.Type == wire.FrameMethod && len(f.Payload) >= 4 &&
		binary.BigEndian.Uint16(f.Payload[0:2]) == wire.ClassBasic &&
		binary.BigEndian.Uint16(f.Payload[2:4]) == 40
}

// fakeMaster speaks just enough server-side AMQP to carry a federation
// link: it completes the handshake, then acks every basic.publish it sees
// by patching the delivery tag into one preallocated ack frame — the
// steady state allocates nothing, so the benchmark's allocs/op measures
// the forward path alone.
func fakeMaster(nc net.Conn) {
	defer nc.Close()
	fr := fakeHandshake(nc)
	if fr == nil {
		return
	}

	// Preassemble one basic.ack frame; the tag lives at byte 11 (7-byte
	// frame header + class/method words).
	var ackBuf bytes.Buffer
	aw := wire.NewWriter()
	aw.AppendMethodFrame(1, &wire.BasicAck{})
	if err := aw.FlushFrames(&ackBuf, 1); err != nil {
		return
	}
	ack := ackBuf.Bytes()

	var n uint64
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if isPublish(f) {
			n++
			binary.BigEndian.PutUint64(ack[11:19], n)
			if _, err := nc.Write(ack); err != nil {
				return
			}
		}
	}
}

// BenchmarkFederationForward measures one federated publish crossing a
// link to an acking master: the client publish (a body under 64 KiB is
// copied into the connection's send buffer) plus confirm bookkeeping.
// Steady state must be 0 allocs/op: the message is retained for its
// confirm, and the publish encodes into the client's pooled buffers.
func BenchmarkFederationForward(b *testing.B) {
	// A real loopback socket, as between nodes. The deadlock a link must
	// not have — a forward blocked writing, the master blocked writing acks
	// behind it, the client's reader blocked on a full confirm listener —
	// cannot form: the relay draining the listener takes only the pending
	// table's mu, which no forward holds across a write (that is sendMu's).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		srv, err := ln.Accept()
		if err != nil {
			return
		}
		fakeMaster(srv)
	}()
	l, err := newFedLink(ln.Addr().String(), "/", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.fail(io.EOF)

	const bodySize = 4096
	msg := broker.NewMessage("", "bench-q", wire.Properties{}, bodySize)
	msg.AppendBody(make([]byte, bodySize))
	defer msg.Release()

	b.ReportAllocs()
	b.SetBytes(bodySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.forward("", "bench-q", msg, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Let the tail of confirms drain so pending doesn't grow run to run.
	for {
		l.mu.Lock()
		outstanding := len(l.pending)
		l.mu.Unlock()
		if outstanding == 0 {
			break
		}
	}
}
