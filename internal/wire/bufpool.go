package wire

import (
	"sync"
	"sync/atomic"

	"ds2hpc/internal/telemetry"
)

// Buffer pooling for the streaming hot path. Every frame read and every
// coalesced frame write works out of a size-classed sync.Pool so that
// steady-state publish/deliver traffic with payloads under a pooled size
// class performs zero per-message heap allocations in the codec.
//
// Pool effectiveness is observable through the telemetry registry:
//
//	wire.bufpool_hits    buffer requests served from a pool
//	wire.bufpool_misses  requests allocating fresh (cold pool or oversize)

var (
	bufPoolHits   = telemetry.Default.Counter("wire.bufpool_hits")
	bufPoolMisses = telemetry.Default.Counter("wire.bufpool_misses")
)

// bufClassSizes are the pooled capacity classes, smallest first. The
// first four serve frames: the fourth covers a full default-size frame
// plus framing overhead. The powers of two above it serve whole message
// bodies on loan (broker ingest, client manual-ack deliveries). Without
// them every body past 132 KiB was a fresh, zeroed allocation on each
// side — 5.1 % of ws_bulk's CPU in makeslice, 6.28 MB/op in
// BenchmarkLargeBodyPublishDeliver against ~1 KB/op with them. 4 MiB,
// four times the paper's largest body (the 1 MiB Lstream), is the
// ceiling; larger requests fall through to plain allocation.
var bufClassSizes = [...]int{1 << 10, 1 << 13, 1 << 16, DefaultFrameMax + 4096,
	1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22}

var bufPools [len(bufClassSizes)]sync.Pool

// bufClass returns the index of the smallest class with capacity >= n, or
// -1 when n exceeds every class.
func bufClass(n int) int {
	for i, size := range bufClassSizes {
		if n <= size {
			return i
		}
	}
	return -1
}

// getBuf returns a pointer to a zero-length buffer with capacity at least n.
// The pointer (not the slice) is what cycles through the pool so that
// recycling does not re-box the slice header on every put.
func getBuf(n int) *[]byte {
	class := bufClass(n)
	if class < 0 {
		bufPoolMisses.Inc()
		b := make([]byte, 0, n)
		return &b
	}
	if p, ok := bufPools[class].Get().(*[]byte); ok {
		bufPoolHits.Inc()
		*p = (*p)[:0]
		return p
	}
	bufPoolMisses.Inc()
	b := make([]byte, 0, bufClassSizes[class])
	return &b
}

// putBuf recycles a buffer obtained from getBuf. Buffers that outgrew every
// class (or were allocated oversize) are dropped for the GC.
func putBuf(p *[]byte) {
	if p == nil {
		return
	}
	class := -1
	for i, size := range bufClassSizes {
		if cap(*p) == size {
			class = i
			break
		}
	}
	if class < 0 {
		return
	}
	bufPools[class].Put(p)
}

// Loaned buffers: the exported ownership API over the size-classed pools.
// A loan is a zero-length buffer a caller owns until it releases it back;
// the broker's message bodies and the client's delivery bodies live on
// loans, so steady-state payload traffic recycles the same few buffers.
// Outstanding loaned capacity is observable as the telemetry gauge
// wire.loaned_bytes (it must return to its baseline when a workload
// drains — a rising floor is a refcount leak).

var loanedBytes atomic.Int64

func init() {
	telemetry.Default.GaugeFunc("wire.loaned_bytes", LoanedBytes)
}

// LoanBuf loans a zero-length pooled buffer with capacity at least n. The
// caller owns it until ReleaseBuf (or AbandonBuf); it must not be grown
// beyond its capacity, or the pool accounting and recycling both break.
func LoanBuf(n int) *[]byte {
	p := getBuf(n)
	loanedBytes.Add(int64(cap(*p)))
	return p
}

// ReleaseBuf returns a loaned buffer to its pool. Safe on nil.
func ReleaseBuf(p *[]byte) {
	if p == nil {
		return
	}
	loanedBytes.Add(-int64(cap(*p)))
	putBuf(p)
}

// AbandonBuf removes a loan from the outstanding accounting without
// recycling it: the buffer's ownership has escaped (e.g. an application
// retained a delivery body across a reconnect), so it is left to the
// garbage collector rather than reused under the holder.
func AbandonBuf(p *[]byte) {
	if p == nil {
		return
	}
	loanedBytes.Add(-int64(cap(*p)))
}

// LoanedBytes reports the total capacity currently out on loan via
// LoanBuf — the "pooled bytes outstanding" telemetry gauge source.
func LoanedBytes() int64 { return loanedBytes.Load() }

// writerPool recycles frame-building Writers across messages. Writers whose
// buffers grew beyond maxPooledWriterBytes are dropped rather than pinned.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 4096)} },
}

// maxPooledWriterBytes caps the buffer capacity a recycled Writer may keep.
// The broker's sends borrow bodies of zcMinBorrow and more, and a client
// publish copies in one body under 64 KiB at most, so a writer holds
// framing plus copied-in small bodies only: what grows one is
// a delivery batch of small messages, up to the batch writer's flush
// threshold plus one maximum-size frame, and the cap must comfortably
// exceed that so the batching path still recycles its writers.
const maxPooledWriterBytes = 1 << 20

// GetWriter returns a reset Writer from the pool. Callers must return it
// with PutWriter once the encoded bytes have been flushed to the wire; the
// returned buffer from Bytes is invalid after PutWriter.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles a Writer obtained from GetWriter.
func PutWriter(w *Writer) {
	if w == nil {
		return
	}
	// Error paths can put a writer back without flushing; make sure no
	// borrowed body slices stay pinned inside the pool.
	w.dropBorrows()
	if cap(w.buf) > maxPooledWriterBytes {
		return
	}
	writerPool.Put(w)
}
