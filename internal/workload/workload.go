// Package workload defines the three streaming workloads of the paper's
// Table 1 — Dstream (GRETA/Deleria), Lstream (SLAC LCLS), and the generic
// workload — and generates their message payloads.
package workload

import (
	"fmt"
	"math/rand"

	"ds2hpc/internal/payload/deleria"
	"ds2hpc/internal/payload/h5lite"
)

// Format names a payload packaging scheme.
type Format string

// Payload formats from Table 1.
const (
	FormatDeleria Format = "binary-compressed-events" // Deleria event batches
	FormatHDF5    Format = "hdf5"                     // LCLS HDF5 files
	FormatBinary  Format = "binary"                   // generic opaque bytes
)

// Workload is one row of Table 1.
type Workload struct {
	// Name is "Dstream", "Lstream" or "generic".
	Name string
	// PayloadBytes is the nominal message payload size.
	PayloadBytes int
	// EventsPerMsg is the number of payload elements batched per message
	// (1 for one-item-per-message workloads).
	EventsPerMsg int
	// Format selects the payload packaging.
	Format Format
	// DataRateBps is the workload's steady data rate from Table 1
	// (32/30/25 Gbps); used by rate-limited producers.
	DataRateBps int64
	// MPI reports whether producers launch behind an mpirun-style
	// synchronized start (Lstream and generic) or independently (Deleria).
	MPI bool
}

// The paper's three workloads.
var (
	// Dstream models GRETA/Deleria: 16 KiB messages of eight 2 KiB
	// events in compressed binary, 32 Gbps, non-MPI parallel clients.
	Dstream = Workload{
		Name:         "Dstream",
		PayloadBytes: deleria.EventSize * deleria.EventsPerMessage,
		EventsPerMsg: deleria.EventsPerMessage,
		Format:       FormatDeleria,
		DataRateBps:  32_000_000_000,
		MPI:          false,
	}
	// Lstream models SLAC LCLS: 1 MiB HDF5 payloads, 30 Gbps, MPI.
	Lstream = Workload{
		Name:         "Lstream",
		PayloadBytes: 1 << 20,
		EventsPerMsg: 1,
		Format:       FormatHDF5,
		DataRateBps:  30_000_000_000,
		MPI:          true,
	}
	// Generic is the arbitrary 4 MiB one-item-per-message workload.
	Generic = Workload{
		Name:         "generic",
		PayloadBytes: 4 << 20,
		EventsPerMsg: 1,
		Format:       FormatBinary,
		DataRateBps:  25_000_000_000,
		MPI:          true,
	}
)

// All lists the workloads in Table 1 order.
var All = []Workload{Dstream, Lstream, Generic}

// ByName looks a workload up by its Table 1 name.
func ByName(name string) (Workload, error) {
	for _, w := range All {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Scaled returns a copy with the payload shrunk by the given divisor (>= 1),
// used together with fabric scaling so benchmark runs finish quickly while
// keeping the payload-to-bandwidth ratio of the full-size experiment.
func (w Workload) Scaled(divisor int) Workload {
	if divisor <= 1 {
		return w
	}
	out := w
	out.PayloadBytes = w.PayloadBytes / divisor
	if out.PayloadBytes < 1024 {
		out.PayloadBytes = 1024
	}
	return out
}

// Generator produces the per-message payloads for one producer. It is not
// safe for concurrent use; create one per producer.
type Generator struct {
	w   Workload
	rng *rand.Rand
	// cache holds a prebuilt payload for formats whose construction cost
	// would otherwise dominate the send loop (matching how the paper's
	// simulator generates workload up front).
	cache []byte
}

// NewGenerator creates a generator seeded for one producer.
func NewGenerator(w Workload, producerID int) *Generator {
	return &Generator{w: w, rng: rand.New(rand.NewSource(int64(producerID)*7919 + 17))}
}

// Payload returns the message body for sequence number seq.
func (g *Generator) Payload(seq uint64) ([]byte, error) {
	switch g.w.Format {
	case FormatDeleria:
		if g.cache == nil {
			batch := deleria.NewBatch(seq)
			data, err := deleria.EncodeBatch(batch)
			if err != nil {
				return nil, err
			}
			g.cache = data
		}
		return g.cache, nil
	case FormatHDF5:
		if g.cache == nil {
			f, err := h5lite.NewFrameFile(seq, g.w.PayloadBytes)
			if err != nil {
				return nil, err
			}
			data, err := f.Encode()
			if err != nil {
				return nil, err
			}
			g.cache = data
		}
		return g.cache, nil
	case FormatBinary:
		if g.cache == nil {
			g.cache = make([]byte, g.w.PayloadBytes)
			g.rng.Read(g.cache)
		}
		return g.cache, nil
	default:
		return nil, fmt.Errorf("workload: unknown format %q", g.w.Format)
	}
}

// Verify checks that a received payload parses under the workload's format.
func (w Workload) Verify(body []byte) error {
	switch w.Format {
	case FormatDeleria:
		_, err := deleria.DecodeBatch(body)
		return err
	case FormatHDF5:
		_, err := h5lite.Decode(body)
		return err
	case FormatBinary:
		if len(body) == 0 {
			return fmt.Errorf("workload: empty binary payload")
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown format %q", w.Format)
	}
}
