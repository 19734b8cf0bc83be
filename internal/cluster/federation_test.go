package cluster

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ds2hpc/internal/broker"
	"ds2hpc/internal/wire"
)

// verdictLog records ClusterConfirm calls in arrival order.
type verdictLog struct {
	mu   sync.Mutex
	seqs []uint64
	oks  []bool
	got  chan struct{} // one token per verdict
}

func (v *verdictLog) ClusterConfirm(seq uint64, ok bool) {
	v.mu.Lock()
	v.seqs = append(v.seqs, seq)
	v.oks = append(v.oks, ok)
	v.mu.Unlock()
	v.got <- struct{}{}
}

// scriptedMaster accepts one link on ln, completes its handshake and hands
// every frame after it to script, then holds the link open until the
// client closes it.
func scriptedMaster(t *testing.T, script func(nc net.Conn, fr *wire.FrameReader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := fakeHandshake(nc)
		if fr == nil {
			return
		}
		script(nc, fr)
		io.Copy(io.Discard, nc)
	}()
	return ln.Addr().String()
}

// TestFedLinkSettleResolvesEachForwardOnce feeds a link the confirm stream
// of a master that batches its acks — multiple-acks interleaved with the
// single verdicts of replicated queues, which overtake them — and checks
// every outstanding forward is relayed to its origin exactly once.
func TestFedLinkSettleResolvesEachForwardOnce(t *testing.T) {
	const n = 10
	verdicts := []struct {
		tag      uint64
		multiple bool
		ok       bool
	}{
		{3, false, true},  // single verdict ahead of the run below it
		{5, true, true},   // the run: 1, 2, 4, 5
		{7, false, false}, // nack
		{6, true, true},   // multiple below an already-settled seq
		{6, true, true},   // duplicate
		{3, false, true},  // duplicate
		{10, true, true},  // 8, 9, 10 — not the nacked 7
	}
	addr := scriptedMaster(t, func(nc net.Conn, fr *wire.FrameReader) {
		for seen := 0; seen < n; {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if isPublish(f) {
				seen++
			}
		}
		w := wire.NewWriter()
		for _, v := range verdicts {
			if v.ok {
				w.AppendMethodFrame(1, &wire.BasicAck{DeliveryTag: v.tag, Multiple: v.multiple})
			} else {
				w.AppendMethodFrame(1, &wire.BasicNack{DeliveryTag: v.tag, Multiple: v.multiple})
			}
		}
		w.FlushFrames(nc, len(verdicts))
	})
	l, err := newFedLink(addr, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.fail(io.EOF)

	msg := broker.NewMessage("", "settle-q", wire.Properties{}, 16)
	msg.AppendBody(make([]byte, 16))
	defer msg.Release()
	log := &verdictLog{got: make(chan struct{}, 2*n)}
	for s := uint64(1); s <= n; s++ {
		// Origin seqs differ from link seqs: the relay must use the former.
		if err := l.forward("", "settle-q", msg, log, s+100); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-log.got:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d forwards relayed", i, n)
		}
	}
	wantSeqs := []uint64{103, 101, 102, 104, 105, 107, 106, 108, 109, 110}
	wantOKs := []bool{true, true, true, true, true, false, true, true, true, true}
	log.mu.Lock()
	if !reflect.DeepEqual(log.seqs, wantSeqs) || !reflect.DeepEqual(log.oks, wantOKs) {
		t.Fatalf("relayed %v %v\n   want %v %v", log.seqs, log.oks, wantSeqs, wantOKs)
	}
	log.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) != 0 {
		t.Fatalf("%d forwards left pending; want 0", len(l.pending))
	}
}

// TestFedLinkForwardKeepsProperties: a forward reaches the master with
// every property of the message. Every field of wire.Properties is
// filled by reflection, so a field added later is covered too.
func TestFedLinkForwardKeepsProperties(t *testing.T) {
	var want wire.Properties
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("field-%d", i))
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Map:
			f.Set(reflect.ValueOf(wire.Table{"field": fmt.Sprint(i)}))
		default:
			t.Fatalf("wire.Properties.%s: no filler for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	headers := make(chan wire.Properties, 1)
	addr := scriptedMaster(t, func(nc net.Conn, fr *wire.FrameReader) {
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if f.Type != wire.FrameHeader {
				continue
			}
			h, err := wire.ParseContentHeader(f.Payload)
			if err != nil {
				t.Error(err)
				return
			}
			headers <- h.Properties
			return
		}
	})
	l, err := newFedLink(addr, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.fail(io.EOF)

	msg := broker.NewMessage("", "props-q", want, 16)
	msg.AppendBody(make([]byte, 16))
	defer msg.Release()
	if err := l.forward("", "props-q", msg, nil, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-headers:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("forwarded properties\n  %+v\nwant\n  %+v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no content header reached the master")
	}
}
