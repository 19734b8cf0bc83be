package deleria

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventSizeMatchesPaper(t *testing.T) {
	e := NewEvent(1)
	// The fixed header plus waveform must total EventSize bytes.
	got := headerBytes + 2*len(e.Waveform)
	if got != EventSize {
		t.Fatalf("event encodes to %d bytes, want %d", got, EventSize)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := NewBatch(42)
	if len(in) != EventsPerMessage {
		t.Fatalf("batch size %d, want %d", len(in), EventsPerMessage)
	}
	data, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("batch round-trip mismatch")
	}
}

func TestBatchIsCompressed(t *testing.T) {
	// Raw size is 4 + 8*2048 bytes; zlib must not expand wildly and the
	// header must look like a zlib stream.
	data, err := EncodeBatch(NewBatch(7))
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x78 {
		t.Errorf("not a zlib stream: first byte %#x", data[0])
	}
	raw := 4 + EventsPerMessage*EventSize
	if len(data) > raw+1024 {
		t.Errorf("compressed %d bytes vs raw %d", len(data), raw)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte("not zlib at all")); err == nil {
		t.Fatal("expected error")
	}
}

func TestEmptyBatch(t *testing.T) {
	data, err := EncodeBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d events", len(out))
	}
}

func TestQuickEventRoundTrip(t *testing.T) {
	f := func(seq uint64) bool {
		in := []Event{NewEvent(seq % 1_000_000)}
		data, err := EncodeBatch(in)
		if err != nil {
			return false
		}
		out, err := DecodeBatch(data)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := NewEvent(9)
	b := NewEvent(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("event generation not deterministic")
	}
}
