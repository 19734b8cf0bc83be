// Package seglog is the broker's durable queue storage: an append-only,
// CRC-framed segment log with fsync policy knobs, head compaction of
// fully-acked segments, and tail-following replay readers.
//
// One Log backs one durable queue. Publishes append data records (the
// message envelope, properties and body, framed per record.go) and are
// assigned monotonically increasing offsets; acknowledgements append ack
// records naming the offset they retire. Recovery on Open scans the
// segment chain, truncates a torn or corrupt tail to the longest prefix of
// intact records, and hands back every data record without a matching ack
// so the broker can rebuild queue state. Appends spill the broker's
// refcounted wire-loan bodies straight into the buffered segment writer —
// no intermediate heap copy — so durable publishing stays within the
// zero-copy data plane budget.
//
// Crash consistency: with FsyncAlways an append is on stable storage
// before it returns, which is what gives the broker confirm-implies-
// durable. FsyncNever and FsyncInterval trade that for throughput: a
// process crash loses at most the unflushed write buffer (and, for a host
// crash, the OS page cache); recovery still finds a clean record prefix.
// What is never guaranteed: records past the first damaged byte are
// discarded, even if later bytes look intact — replay is a prefix, not a
// patchwork.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// ErrClosed reports use of a closed (or crashed) log.
var ErrClosed = errors.New("seglog: log closed")

// Telemetry probes, shared by every log in the process (the figure-grid
// durability axis reads these):
//
//	seglog.appended_bytes   record bytes appended (counter)
//	seglog.segment_bytes    on-disk bytes across live logs (gauge)
//	seglog.segments         live segment files (gauge)
//	seglog.fsync_ns         fsync latency (histogram)
var (
	telAppendedBytes = telemetry.Default.Counter("seglog.appended_bytes")
	telSegmentBytes  = telemetry.Default.Gauge("seglog.segment_bytes")
	telSegments      = telemetry.Default.Gauge("seglog.segments")
	telFsyncNs       = telemetry.Default.Histogram("seglog.fsync_ns")
)

// Fsync selects when appended records are forced to stable storage.
type Fsync int

const (
	// FsyncNever leaves syncing to the OS: fastest, and a process crash
	// loses at most the unflushed write buffer.
	FsyncNever Fsync = iota
	// FsyncAlways syncs before every append returns — the policy behind
	// confirm-implies-durable.
	FsyncAlways
	// FsyncInterval syncs on a timer (Options.FsyncEvery).
	FsyncInterval
)

// ParseFsync maps the scenario/CLI spellings to a policy.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "", "never":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return 0, fmt.Errorf("seglog: unknown fsync policy %q (want never, always or interval)", s)
}

func (f Fsync) String() string {
	switch f {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Options tune one log.
type Options struct {
	// SegmentBytes seals the active segment once it reaches this size
	// (default 8 MiB).
	SegmentBytes int64
	// Fsync is the sync policy (default FsyncNever).
	Fsync Fsync
	// FsyncEvery is the FsyncInterval period (default 50ms).
	FsyncEvery time.Duration
	// RetainAll keeps fully-acked sealed segments instead of compacting
	// them away, so replay readers can attach at any offset back to 0.
	RetainAll bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 50 * time.Millisecond
	}
	return o
}

// segment is the in-memory accounting for one segment file.
type segment struct {
	seq      uint64 // file sequence, append order
	base     uint64 // log's next offset when the segment was created
	path     string
	size     int64 // bytes written, flushed or buffered
	data     int   // data records
	unacked  int   // data records without a matching ack
	firstOff uint64
	lastOff  uint64 // valid when data > 0
	sealed   bool
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%012d.log", seq) }

func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "seg-%012d.log", &seq); n != 1 || err != nil {
		return 0, false
	}
	if name != segName(seq) {
		return 0, false
	}
	return seq, true
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	// Unacked holds every intact data record without a matching ack, in
	// offset order — the queue contents to rebuild.
	Unacked []*Record
	// Records counts intact data records scanned, acked or not.
	Records int
	// Truncated reports that a torn or corrupt tail (and any segments
	// after it) was discarded to restore a clean prefix.
	Truncated bool
	// TruncatedBytes is how many bytes the cleanup dropped.
	TruncatedBytes int64
}

// Log is one durable queue's segment log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	segs      []*segment // append order; the last one is active
	f         *os.File   // active segment
	w         *bufio.Writer
	next      uint64 // next data offset
	recSeq    uint64 // next record sequence (data and ack records alike)
	diskBytes int64
	closed    bool
	hdrBuf    [recHeaderSize]byte // reused record header (avoids per-append escape)
	tail      chan struct{}       // closed and replaced on append; reader wakeup
	done      chan struct{}       // closed on Close/Crash
	syncStop  chan struct{}
	syncWG    sync.WaitGroup
}

// Open opens (creating if needed) the log in dir, runs recovery over any
// existing segments, and starts a fresh active segment. The Recovery
// carries the unacked records the owner must re-enqueue.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{dir: dir, opts: opts.withDefaults(), done: make(chan struct{})}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	err = l.rotateLocked()
	l.mu.Unlock()
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	if l.opts.Fsync == FsyncInterval {
		l.syncStop = make(chan struct{})
		l.syncWG.Add(1)
		go l.syncLoop(l.syncStop)
	}
	return l, rec, nil
}

// Append writes one data record — exchange/key envelope, properties
// encoded as an AMQP content header, and the body — and returns its
// offset. The body may be a refcounted wire loan; it is fully consumed
// before Append returns and never retained.
func (l *Log) Append(exchange, key string, props *wire.Properties, body []byte) (uint64, error) {
	return l.append(0, false, exchange, key, props, body)
}

// AppendAt writes one data record at an explicit offset instead of the
// log's own counter — the mirror-replica path, where the master assigns
// offsets and replicas must reproduce them. The log's next offset
// advances to off+1 when off is at or past it, so interleaved catch-up
// and live streams converge on the master's numbering. Offsets may
// arrive out of order; callers are responsible for not appending the
// same offset twice.
func (l *Log) AppendAt(off uint64, exchange, key string, props *wire.Properties, body []byte) error {
	_, err := l.append(off, true, exchange, key, props, body)
	return err
}

func (l *Log) append(at uint64, explicit bool, exchange, key string, props *wire.Properties, body []byte) (uint64, error) {
	hw := wire.GetWriter()
	defer wire.PutWriter(hw)
	wire.MarshalContentHeader(hw, wire.ClassBasic, uint64(len(body)), props)
	mw := wire.GetWriter()
	defer wire.PutWriter(mw)
	mw.ShortStr(exchange)
	mw.ShortStr(key)
	mw.Long(uint32(len(hw.Bytes())))
	if err := mw.Err(); err != nil {
		return 0, fmt.Errorf("seglog: encode envelope: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	off := l.next
	if explicit {
		off = at
	}
	if err := l.appendLocked(recData, off, mw.Bytes(), hw.Bytes(), body); err != nil {
		return 0, err
	}
	if off >= l.next {
		l.next = off + 1
	}
	seg := l.segs[len(l.segs)-1]
	if seg.data == 0 {
		seg.firstOff = off
		seg.lastOff = off
	}
	seg.data++
	seg.unacked++
	if off < seg.firstOff {
		seg.firstOff = off
	}
	if off > seg.lastOff {
		seg.lastOff = off
	}
	if err := l.syncRotateLocked(seg); err != nil {
		return 0, err
	}
	l.wakeLocked()
	return off, nil
}

// Ack appends an ack record retiring the data record at off. Fully-acked
// sealed segments at the head of the log are compacted away unless
// Options.RetainAll is set.
func (l *Log) Ack(off uint64) error {
	return l.AckAll([]uint64{off})
}

// AckAll appends and retires an ack record for every offset, then compacts
// and runs a single sync/rotation check — the broker's batched-ack path:
// one fsync per batch under FsyncAlways. Records appended before an error
// still get that sync.
func (l *Log) AckAll(offs []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var err error
	n := 0
	for ; n < len(offs); n++ {
		if err = l.appendLocked(recAck, offs[n], nil, nil, nil); err != nil {
			break
		}
		l.retireLocked(offs[n])
	}
	if n == 0 {
		return err
	}
	l.compactLocked()
	if serr := l.syncRotateLocked(l.segs[len(l.segs)-1]); err == nil {
		err = serr
	}
	return err
}

// retireLocked decrements the unacked count of the segment holding off.
func (l *Log) retireLocked(off uint64) {
	for i := len(l.segs) - 1; i >= 0; i-- {
		seg := l.segs[i]
		if seg.data > 0 && seg.firstOff <= off && off <= seg.lastOff {
			if seg.unacked > 0 {
				seg.unacked--
			}
			return
		}
	}
}

// compactLocked deletes the longest prefix of sealed, fully-acked
// segments. Head-only compaction keeps recovery sound: a deleted
// segment's ack records can only reference data that is deleted with it,
// so no acked record is ever resurrected by a later recovery.
func (l *Log) compactLocked() {
	if l.opts.RetainAll {
		return
	}
	for len(l.segs) > 0 {
		seg := l.segs[0]
		if !seg.sealed || seg.unacked != 0 {
			return
		}
		l.removeSegLocked(0)
	}
}

func (l *Log) removeSegLocked(i int) {
	seg := l.segs[i]
	os.Remove(seg.path)
	l.segs = append(l.segs[:i], l.segs[i+1:]...)
	l.diskBytes -= seg.size
	telSegments.Add(-1)
	telSegmentBytes.Add(-seg.size)
}

// appendLocked frames and buffers one record.
func (l *Log) appendLocked(typ byte, off uint64, meta, hdr, body []byte) error {
	if l.w == nil {
		return ErrClosed
	}
	plen := len(meta) + len(hdr) + len(body)
	rh := &l.hdrBuf
	binary.BigEndian.PutUint32(rh[4:8], uint32(plen))
	rh[8] = typ
	binary.BigEndian.PutUint64(rh[9:17], l.recSeq)
	binary.BigEndian.PutUint64(rh[17:], off)
	l.recSeq++
	crc := crc32.Update(0, castagnoli, rh[4:])
	crc = crc32.Update(crc, castagnoli, meta)
	crc = crc32.Update(crc, castagnoli, hdr)
	crc = crc32.Update(crc, castagnoli, body)
	binary.BigEndian.PutUint32(rh[:4], crc)
	if _, err := l.w.Write(rh[:]); err != nil {
		return err
	}
	for _, part := range [3][]byte{meta, hdr, body} {
		if len(part) == 0 {
			continue
		}
		if _, err := l.w.Write(part); err != nil {
			return err
		}
	}
	n := int64(recHeaderSize + plen)
	seg := l.segs[len(l.segs)-1]
	seg.size += n
	l.diskBytes += n
	telAppendedBytes.Add(n)
	telSegmentBytes.Add(n)
	return nil
}

// syncRotateLocked applies the fsync policy and rotates a full segment.
func (l *Log) syncRotateLocked(seg *segment) error {
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if seg.size >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment (if any) and opens the next one.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		cur := l.segs[len(l.segs)-1]
		cur.sealed = true
		l.f.Close()
		l.f, l.w = nil, nil
		l.compactLocked()
	}
	seq := uint64(1)
	if n := len(l.segs); n > 0 {
		seq = l.segs[n-1].seq + 1
	}
	seg := &segment{seq: seq, base: l.next, path: filepath.Join(l.dir, segName(seq))}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	hdr := encodeFileHeader(seg.base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("seglog: %w", err)
	}
	seg.size = fileHeaderSize
	l.segs = append(l.segs, seg)
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	l.diskBytes += fileHeaderSize
	telSegments.Add(1)
	telSegmentBytes.Add(fileHeaderSize)
	return nil
}

func (l *Log) flushLocked() error {
	if l.w == nil {
		return nil
	}
	return l.w.Flush()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	telFsyncNs.Record(time.Since(start).Nanoseconds())
	return nil
}

// Flush drains the write buffer to the OS (no fsync).
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) syncLoop(stop <-chan struct{}) {
	defer l.syncWG.Done()
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked()
			}
			l.mu.Unlock()
		case <-stop:
			return
		}
	}
}

func (l *Log) stopSyncer() {
	l.mu.Lock()
	ch := l.syncStop
	l.syncStop = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
		l.syncWG.Wait()
	}
}

// wakeLocked signals tail-following readers that new records may be
// available.
func (l *Log) wakeLocked() {
	if l.tail != nil {
		close(l.tail)
		l.tail = nil
	}
}

func (l *Log) tailWaitLocked() chan struct{} {
	if l.tail == nil {
		l.tail = make(chan struct{})
	}
	return l.tail
}

// Scan walks every retained record — data and ack alike — in log order,
// calling data for each data record and ack for each ack record (either
// may be nil to skip that kind). It is the mirror catch-up feed: a master
// replays its whole retained history to a joining replica, acks included,
// so the replica converges on the same unacked set. Record bodies alias a
// per-segment read buffer and must be copied if kept.
//
// Scan flushes the write buffer, snapshots the segment list, then reads
// segment files without holding the log lock, so appends proceed
// concurrently. Records appended after the snapshot may or may not be
// seen; segments compacted away mid-scan are skipped. The callbacks'
// error, if any, aborts the scan and is returned.
func (l *Log) Scan(data func(*Record) error, ack func(off uint64) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	paths := make([]string, len(l.segs))
	for i, seg := range l.segs {
		paths[i] = seg.path
	}
	l.mu.Unlock()

	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue // compacted away mid-scan
		}
		if err != nil {
			return fmt.Errorf("seglog: scan: %w", err)
		}
		if len(buf) < fileHeaderSize {
			continue
		}
		if _, err := parseFileHeader(buf); err != nil {
			return err
		}
		rest := buf[fileHeaderSize:]
		for len(rest) >= recHeaderSize {
			crc, plen, typ, _, off := parseRecHeader(rest[:recHeaderSize])
			if plen < 0 || plen > maxRecordBytes || len(rest) < recHeaderSize+plen {
				break // torn tail racing a concurrent append; post-snapshot
			}
			payload := rest[recHeaderSize : recHeaderSize+plen]
			if recCRC(rest[4:recHeaderSize], payload) != crc {
				break
			}
			switch typ {
			case recData:
				if data != nil {
					rec, err := decodeDataPayload(off, payload)
					if err != nil {
						return err
					}
					if err := data(rec); err != nil {
						return err
					}
				}
			case recAck:
				if ack != nil {
					if err := ack(off); err != nil {
						return err
					}
				}
			}
			rest = rest[recHeaderSize+plen:]
		}
	}
	return nil
}

// NextOffset is the offset the next appended data record will get.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// DiskBytes is the log's on-disk footprint (flushed or buffered).
func (l *Log) DiskBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.diskBytes
}

// SegmentCount is the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes, syncs and closes the log. Further use returns ErrClosed.
func (l *Log) Close() error {
	l.stopSyncer()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.flushLocked()
	if l.f != nil {
		if e := l.f.Sync(); err == nil {
			err = e
		}
		l.f.Close()
		l.f, l.w = nil, nil
	}
	l.dropAccountingLocked()
	l.wakeLocked()
	close(l.done)
	return err
}

// Crash simulates a hard kill for crash tests and fault scripts: the
// write buffer is dropped without flushing and descriptors are closed
// without syncing, leaving on disk exactly what the OS had already
// received. The log object refuses further use.
func (l *Log) Crash() {
	l.stopSyncer()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.w = nil // unflushed bytes die here, as in a real SIGKILL
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.dropAccountingLocked()
	l.wakeLocked()
	close(l.done)
}

// dropAccountingLocked retires this log's contribution to the process-wide
// gauges; a later Open re-adds what recovery actually finds on disk.
func (l *Log) dropAccountingLocked() {
	telSegments.Add(-int64(len(l.segs)))
	telSegmentBytes.Add(-l.diskBytes)
}

// Remove closes the log and deletes its directory — queue deletion.
func (l *Log) Remove() error {
	l.Close()
	return os.RemoveAll(l.dir)
}
