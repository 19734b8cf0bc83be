// Package h5lite is a minimal self-describing scientific container format
// standing in for HDF5, which the paper's LCLS workload uses for its 1 MiB
// message payloads ("each message contains an HDF5-formatted file"). It
// supports named datasets with an element type, a shape, and raw chunk
// data, which is the subset the streaming path exercises: pack a detector
// frame, ship it, unpack it.
//
// Layout:
//
//	superblock: magic "\x89H5L\r\n\x1a\n" | version u8 | dataset count u32
//	dataset:    name (u16 len + bytes) | dtype u8 | ndims u8 |
//	            dims []u64 | data length u64 | data bytes
package h5lite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
)

// magic mirrors HDF5's signature structure.
var magic = []byte{0x89, 'H', '5', 'L', '\r', '\n', 0x1a, '\n'}

const version = 1

// DType identifies a dataset element type.
type DType uint8

// Supported element types.
const (
	U8  DType = 1
	I16 DType = 2
	I32 DType = 3
	F32 DType = 4
	F64 DType = 5
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case U8:
		return 1
	case I16:
		return 2
	case I32, F32:
		return 4
	case F64:
		return 8
	default:
		return 0
	}
}

// Dataset is one named array.
type Dataset struct {
	Name string
	Type DType
	Dims []uint64
	Data []byte // raw little-endian element data
}

// Elements returns the number of elements implied by Dims.
func (ds *Dataset) Elements() uint64 {
	n := uint64(1)
	for _, d := range ds.Dims {
		n *= d
	}
	return n
}

// Validate checks that the data length matches the declared shape.
func (ds *Dataset) Validate() error {
	want := ds.Elements() * uint64(ds.Type.Size())
	if uint64(len(ds.Data)) != want {
		return fmt.Errorf("h5lite: dataset %q: %d data bytes, shape wants %d",
			ds.Name, len(ds.Data), want)
	}
	return nil
}

// File is an in-memory container.
type File struct {
	Datasets []Dataset
}

// Encode serializes the container.
func (f *File) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic)
	buf.WriteByte(version)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(f.Datasets)))
	buf.Write(cnt[:])
	for i := range f.Datasets {
		ds := &f.Datasets[i]
		if err := ds.Validate(); err != nil {
			return nil, err
		}
		if len(ds.Name) > 1<<16-1 {
			return nil, fmt.Errorf("h5lite: dataset name too long")
		}
		var l16 [2]byte
		binary.LittleEndian.PutUint16(l16[:], uint16(len(ds.Name)))
		buf.Write(l16[:])
		buf.WriteString(ds.Name)
		buf.WriteByte(byte(ds.Type))
		buf.WriteByte(byte(len(ds.Dims)))
		for _, d := range ds.Dims {
			var l64 [8]byte
			binary.LittleEndian.PutUint64(l64[:], d)
			buf.Write(l64[:])
		}
		var dl [8]byte
		binary.LittleEndian.PutUint64(dl[:], uint64(len(ds.Data)))
		buf.Write(dl[:])
		buf.Write(ds.Data)
	}
	return buf.Bytes(), nil
}

// Decode parses a container.
func Decode(data []byte) (*File, error) {
	r := bytes.NewReader(data)
	sig := make([]byte, len(magic))
	if _, err := io.ReadFull(r, sig); err != nil {
		return nil, err
	}
	if !bytes.Equal(sig, magic) {
		return nil, errors.New("h5lite: bad signature")
	}
	ver, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("h5lite: unsupported version %d", ver)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(cnt[:])
	if n > 1<<16 {
		return nil, fmt.Errorf("h5lite: implausible dataset count %d", n)
	}
	f := &File{}
	for i := uint32(0); i < n; i++ {
		var l16 [2]byte
		if _, err := io.ReadFull(r, l16[:]); err != nil {
			return nil, err
		}
		name := make([]byte, binary.LittleEndian.Uint16(l16[:]))
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, err
		}
		dt, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		ndims, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		dims := make([]uint64, ndims)
		for j := range dims {
			var l64 [8]byte
			if _, err := io.ReadFull(r, l64[:]); err != nil {
				return nil, err
			}
			dims[j] = binary.LittleEndian.Uint64(l64[:])
		}
		var dl [8]byte
		if _, err := io.ReadFull(r, dl[:]); err != nil {
			return nil, err
		}
		dataLen := binary.LittleEndian.Uint64(dl[:])
		if dataLen > uint64(len(data)) {
			return nil, fmt.Errorf("h5lite: dataset %q longer than container", name)
		}
		payload := make([]byte, dataLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		ds := Dataset{Name: string(name), Type: DType(dt), Dims: dims, Data: payload}
		if err := ds.Validate(); err != nil {
			return nil, err
		}
		f.Datasets = append(f.Datasets, ds)
	}
	return f, nil
}

// NewFrameFile synthesizes an LCLS-style detector frame container of
// approximately totalBytes: a 2D I16 image dataset plus small metadata
// datasets, seeded deterministically by seq.
func NewFrameFile(seq uint64, totalBytes int) (*File, error) {
	if totalBytes < 4096 {
		totalBytes = 4096
	}
	rng := rand.New(rand.NewSource(int64(seq)))
	// Reserve a little for metadata; the image dominates.
	imgBytes := totalBytes - 512
	pixels := imgBytes / 2
	side := 1
	for side*side*2 < imgBytes {
		side++
	}
	side--
	if side < 1 {
		side = 1
	}
	pixels = side * side
	img := make([]byte, pixels*2)
	rng.Read(img)

	ts := make([]byte, 8)
	binary.LittleEndian.PutUint64(ts, seq)
	energy := make([]byte, 8)
	binary.LittleEndian.PutUint64(energy, uint64(rng.Int63()))

	f := &File{Datasets: []Dataset{
		{Name: "entry/data/frame", Type: I16, Dims: []uint64{uint64(side), uint64(side)}, Data: img},
		{Name: "entry/timestamp", Type: F64, Dims: []uint64{1}, Data: ts},
		{Name: "entry/beam_energy", Type: F64, Dims: []uint64{1}, Data: energy},
	}}
	return f, nil
}
