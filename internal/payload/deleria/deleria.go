// Package deleria implements the GRETA/Deleria event payload format from
// the paper's Table 1: messages carry a variable number of experimental
// events batched together in a compressed binary format (Deleria's
// JSON-encoded control messages are not modelled). The evaluation fixes
// events at 2 KiB and batches eight per message, yielding 16 KiB payloads.
package deleria

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// EventSize is the fixed per-event size used by the paper's evaluation.
const EventSize = 2048

// EventsPerMessage is the fixed batch size used by the paper's evaluation.
const EventsPerMessage = 8

// Event is one gamma-ray interaction record: identification, energy, 3D
// position (GRETA's tracking output), and the digitized waveform segment
// that pads the record to EventSize.
type Event struct {
	ID        uint64
	Timestamp uint64 // detector clock ticks
	Detector  uint16 // crystal id
	Energy    float64
	Position  [3]float32
	Waveform  []int16
}

// waveformSamples pads the fixed header up to EventSize bytes.
const headerBytes = 8 + 8 + 2 + 8 + 12 + 4 // fields + waveform length prefix
const waveformSamples = (EventSize - headerBytes) / 2

// NewEvent synthesizes a deterministic event for the given sequence number.
func NewEvent(seq uint64) Event {
	rng := rand.New(rand.NewSource(int64(seq)))
	ev := Event{
		ID:        seq,
		Timestamp: seq * 100,
		Detector:  uint16(seq % 120), // the paper's 120 simulated detectors
		Energy:    rng.Float64() * 10_000,
		Position: [3]float32{
			rng.Float32() * 80, rng.Float32() * 80, rng.Float32() * 80,
		},
		Waveform: make([]int16, waveformSamples),
	}
	for i := range ev.Waveform {
		ev.Waveform[i] = int16(rng.Intn(1 << 14))
	}
	return ev
}

// marshalTo writes the fixed-size binary encoding of the event.
func (e *Event) marshalTo(w io.Writer) error {
	var scratch [headerBytes]byte
	binary.BigEndian.PutUint64(scratch[0:8], e.ID)
	binary.BigEndian.PutUint64(scratch[8:16], e.Timestamp)
	binary.BigEndian.PutUint16(scratch[16:18], e.Detector)
	binary.BigEndian.PutUint64(scratch[18:26], uint64(float64bits(e.Energy)))
	for i, p := range e.Position {
		binary.BigEndian.PutUint32(scratch[26+4*i:], float32bits(p))
	}
	binary.BigEndian.PutUint32(scratch[38:42], uint32(len(e.Waveform)))
	if _, err := w.Write(scratch[:]); err != nil {
		return err
	}
	buf := make([]byte, 2*len(e.Waveform))
	for i, s := range e.Waveform {
		binary.BigEndian.PutUint16(buf[2*i:], uint16(s))
	}
	_, err := w.Write(buf)
	return err
}

func unmarshalEvent(r io.Reader) (Event, error) {
	var scratch [headerBytes]byte
	if _, err := io.ReadFull(r, scratch[:]); err != nil {
		return Event{}, err
	}
	e := Event{
		ID:        binary.BigEndian.Uint64(scratch[0:8]),
		Timestamp: binary.BigEndian.Uint64(scratch[8:16]),
		Detector:  binary.BigEndian.Uint16(scratch[16:18]),
		Energy:    float64frombits(binary.BigEndian.Uint64(scratch[18:26])),
	}
	for i := range e.Position {
		e.Position[i] = float32frombits(binary.BigEndian.Uint32(scratch[26+4*i:]))
	}
	n := binary.BigEndian.Uint32(scratch[38:42])
	if n > 1<<20 {
		return Event{}, fmt.Errorf("deleria: implausible waveform length %d", n)
	}
	buf := make([]byte, 2*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Event{}, err
	}
	e.Waveform = make([]int16, n)
	for i := range e.Waveform {
		e.Waveform[i] = int16(binary.BigEndian.Uint16(buf[2*i:]))
	}
	return e, nil
}

// EncodeBatch packs events into the compressed binary message format.
func EncodeBatch(events []Event) ([]byte, error) {
	var raw bytes.Buffer
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(events)))
	raw.Write(count[:])
	for i := range events {
		if err := events[i].marshalTo(&raw); err != nil {
			return nil, err
		}
	}
	var out bytes.Buffer
	zw := zlib.NewWriter(&out)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeBatch unpacks a compressed event batch.
func DecodeBatch(data []byte) ([]Event, error) {
	zr, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("deleria: decompress: %w", err)
	}
	defer zr.Close()
	var count [4]byte
	if _, err := io.ReadFull(zr, count[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(count[:])
	if n > 1<<20 {
		return nil, fmt.Errorf("deleria: implausible batch size %d", n)
	}
	events := make([]Event, 0, n)
	for i := uint32(0); i < n; i++ {
		e, err := unmarshalEvent(zr)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}

// NewBatch synthesizes the paper's fixed-shape batch (8 × 2 KiB events)
// for message seq.
func NewBatch(seq uint64) []Event {
	events := make([]Event, EventsPerMessage)
	for i := range events {
		events[i] = NewEvent(seq*EventsPerMessage + uint64(i))
	}
	return events
}

func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }
func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }
