package h5lite

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	in := &File{Datasets: []Dataset{
		{Name: "a", Type: U8, Dims: []uint64{4}, Data: []byte{1, 2, 3, 4}},
		{Name: "grid", Type: I16, Dims: []uint64{2, 3}, Data: make([]byte, 12)},
	}}
	data, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round-trip mismatch")
	}
}

func TestValidateCatchesShapeMismatch(t *testing.T) {
	f := &File{Datasets: []Dataset{
		{Name: "bad", Type: F64, Dims: []uint64{3}, Data: make([]byte, 8)},
	}}
	if _, err := f.Encode(); err == nil {
		t.Fatal("expected shape validation error")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode([]byte("definitely not h5")); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	in := &File{Datasets: []Dataset{
		{Name: "x", Type: U8, Dims: []uint64{100}, Data: make([]byte, 100)},
	}}
	data, _ := in.Encode()
	if _, err := Decode(data[:len(data)-10]); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestDatasetLookup(t *testing.T) {
	f := &File{Datasets: []Dataset{
		{Name: "one", Type: U8, Dims: []uint64{1}, Data: []byte{9}},
	}}
	if ds, ok := dataset(f, "one"); !ok || ds.Data[0] != 9 {
		t.Fatal("lookup failed")
	}
	if _, ok := dataset(f, "two"); ok {
		t.Fatal("phantom dataset")
	}
}

func TestDTypeSizes(t *testing.T) {
	want := map[DType]int{U8: 1, I16: 2, I32: 4, F32: 4, F64: 8, DType(99): 0}
	for dt, w := range want {
		if got := dt.Size(); got != w {
			t.Errorf("Size(%d) = %d, want %d", dt, got, w)
		}
	}
}

func TestNewFrameFileApproximatesSize(t *testing.T) {
	const want = 1 << 20 // the LCLS 1 MiB payload
	f, err := NewFrameFile(5, want)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < want*8/10 || len(data) > want*11/10 {
		t.Fatalf("encoded %d bytes, want ~%d", len(data), want)
	}
	if _, ok := dataset(f, "entry/data/frame"); !ok {
		t.Fatal("frame dataset missing")
	}
}

func TestNewFrameFileDeterministic(t *testing.T) {
	a, _ := NewFrameFile(3, 64*1024)
	b, _ := NewFrameFile(3, 64*1024)
	da, _ := a.Encode()
	db, _ := b.Encode()
	if !bytes.Equal(da, db) {
		t.Fatal("frame generation not deterministic")
	}
}

func TestQuickRoundTripU8(t *testing.T) {
	f := func(name string, data []byte) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		in := &File{Datasets: []Dataset{
			{Name: name, Type: U8, Dims: []uint64{uint64(len(data))}, Data: data},
		}}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := Decode(enc)
		if err != nil {
			return false
		}
		got, ok := dataset(out, name)
		return ok && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// dataset returns the named dataset of f.
func dataset(f *File, name string) (*Dataset, bool) {
	for i := range f.Datasets {
		if f.Datasets[i].Name == name {
			return &f.Datasets[i], true
		}
	}
	return nil, false
}
