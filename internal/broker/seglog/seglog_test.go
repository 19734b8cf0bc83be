package seglog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ds2hpc/internal/wire"
)

func mustAppend(t *testing.T, l *Log, body string) uint64 {
	t.Helper()
	off, err := l.Append("ex", "key", &wire.Properties{DeliveryMode: wire.Persistent}, []byte(body))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return off
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(rec.Unacked) != 0 || rec.Records != 0 {
		t.Fatalf("fresh log reported recovery %+v", rec)
	}
	props := &wire.Properties{
		ContentType:   "application/octet-stream",
		DeliveryMode:  wire.Persistent,
		CorrelationID: "corr-7",
		Timestamp:     1234567890,
		Headers:       wire.Table{"x-rank": int32(3)},
	}
	for i := 0; i < 5; i++ {
		off, err := l.Append("amq.direct", fmt.Sprintf("rk.%d", i), props, []byte(fmt.Sprintf("body-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if off != uint64(i) {
			t.Fatalf("append %d: offset %d", i, off)
		}
	}
	if err := l.Ack(1); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if err := l.AckAll([]uint64{3, 4}); err != nil {
		t.Fatalf("ackall: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec2.Records != 5 || rec2.Truncated {
		t.Fatalf("recovery %+v, want 5 clean records", rec2)
	}
	var got []uint64
	for _, r := range rec2.Unacked {
		got = append(got, r.Offset)
	}
	if fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("unacked offsets %v, want [0 2]", got)
	}
	r0 := rec2.Unacked[0]
	if r0.Exchange != "amq.direct" || r0.Key != "rk.0" || string(r0.Body) != "body-0" {
		t.Fatalf("record 0 round-trip: %+v body=%q", r0, r0.Body)
	}
	if r0.Props.CorrelationID != "corr-7" || r0.Props.Timestamp != 1234567890 {
		t.Fatalf("properties did not round-trip: %+v", r0.Props)
	}
	if v, ok := r0.Props.Headers["x-rank"].(int32); !ok || v != 3 {
		t.Fatalf("headers did not round-trip: %+v", r0.Props.Headers)
	}
	if next := l2.NextOffset(); next != 5 {
		t.Fatalf("NextOffset=%d, want 5", next)
	}
}

func TestHeadCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		mustAppend(t, l, fmt.Sprintf("payload-%d", i))
	}
	head := headSeq(l)
	// Ack out of order: 1 first must NOT release the head (0 unacked).
	if err := l.Ack(1); err != nil {
		t.Fatal(err)
	}
	if got := headSeq(l); got != head {
		t.Fatalf("head segment %d after mid ack, want %d (head-only compaction)", got, head)
	}
	if err := l.Ack(0); err != nil {
		t.Fatal(err)
	}
	if got := headSeq(l); got <= head+1 {
		t.Fatalf("head segment %d after head drain, want both drained segments gone (> %d)", got, head+1)
	}
	// Offsets 2,3 still recoverable after reopen.
	l.Close()
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	var got []uint64
	for _, r := range rec.Unacked {
		got = append(got, r.Offset)
	}
	if fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("unacked after compaction %v, want [2 3]", got)
	}
}

func TestRetainAllKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1, RetainAll: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		mustAppend(t, l, "x")
	}
	if err := l.AckAll([]uint64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := l.SegmentCount(); got < 3 {
		t.Fatalf("RetainAll log compacted to %d segments", got)
	}
}

func TestCrashDropsUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAppend(t, l, "survives")
	l.mu.Lock()
	err = l.syncLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "buffered-only")
	l.Crash() // no flush: the second record must die with the buffer

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	if rec.Records != 1 || len(rec.Unacked) != 1 {
		t.Fatalf("recovered %d records (%d unacked), want exactly the synced one", rec.Records, len(rec.Unacked))
	}
	if string(rec.Unacked[0].Body) != "survives" {
		t.Fatalf("recovered %q", rec.Unacked[0].Body)
	}
}

func TestFsyncAlwaysSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 8; i++ {
		mustAppend(t, l, fmt.Sprintf("msg-%d", i))
	}
	l.Crash()
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Records != 8 {
		t.Fatalf("fsync=always lost records: recovered %d of 8", rec.Records)
	}
}

// TestAckAllSyncsOncePerBatch: under FsyncAlways, AckAll of 100 offsets
// appends 100 ack records and fsyncs once, not once per record.
func TestAckAllSyncsOncePerBatch(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	offs := make([]uint64, 100)
	for i := range offs {
		offs[i] = mustAppend(t, l, fmt.Sprintf("msg-%d", i))
	}
	before := telFsyncNs.Count()
	if err := l.AckAll(offs); err != nil {
		t.Fatalf("ack all: %v", err)
	}
	if n := telFsyncNs.Count() - before; n != 1 {
		t.Fatalf("AckAll of %d offsets recorded %d fsyncs, want 1", len(offs), n)
	}
}

func TestFsyncIntervalSyncs(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: FsyncInterval, FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAppend(t, l, "ticked")
	deadline := time.Now().Add(2 * time.Second)
	for {
		// The interval syncer flushes the buffer; once it has run, a
		// crash must not lose the record.
		st, err := os.Stat(activeSegPath(t, l))
		if err == nil && st.Size() > fileHeaderSize {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	l.Crash()
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Records != 1 {
		t.Fatalf("recovered %d records, want the interval-synced one", rec.Records)
	}
}

func headSeq(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].seq
}

func activeSegPath(t *testing.T, l *Log) string {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[len(l.segs)-1].path
}

func TestParseFsync(t *testing.T) {
	for in, want := range map[string]Fsync{"": FsyncNever, "never": FsyncNever, "always": FsyncAlways, "interval": FsyncInterval} {
		got, err := ParseFsync(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("ParseFsync accepted garbage")
	}
}

func TestReaderReplaysAndFollowsTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256, RetainAll: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("hot-%d", i))
	}
	// Acks interleaved in the stream must be invisible to replay.
	if err := l.AckAll([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	defer close(stop)
	r := l.NewReader(0)
	defer r.Close()
	for i := 0; i < 10; i++ {
		rec, err := r.Next(stop)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if rec.Offset != uint64(i) || string(rec.Body) != fmt.Sprintf("hot-%d", i) {
			t.Fatalf("replay %d: off=%d body=%q", i, rec.Offset, rec.Body)
		}
	}

	// Tail-follow: the next record arrives while the reader blocks.
	got := make(chan *Record, 1)
	errs := make(chan error, 1)
	go func() {
		rec, err := r.Next(stop)
		if err != nil {
			errs <- err
			return
		}
		got <- rec
	}()
	time.Sleep(10 * time.Millisecond)
	mustAppend(t, l, "live-tail")
	select {
	case rec := <-got:
		if rec.Offset != 10 || string(rec.Body) != "live-tail" {
			t.Fatalf("tail record off=%d body=%q", rec.Offset, rec.Body)
		}
	case err := <-errs:
		t.Fatalf("tail follow: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("reader never saw the tail append")
	}
}

func TestReaderFromMidOffsetAndStop(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{RetainAll: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		mustAppend(t, l, fmt.Sprintf("m-%d", i))
	}
	stop := make(chan struct{})
	r := l.NewReader(4)
	defer r.Close()
	for want := 4; want < 6; want++ {
		rec, err := r.Next(stop)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Offset != uint64(want) {
			t.Fatalf("offset %d, want %d", rec.Offset, want)
		}
	}
	errs := make(chan error, 1)
	go func() {
		_, err := r.Next(stop)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case err := <-errs:
		if err != ErrStopped {
			t.Fatalf("stopped reader returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader ignored stop")
	}
}

func TestReaderSeesClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r := l.NewReader(0)
	defer r.Close()
	errs := make(chan error, 1)
	go func() {
		_, err := r.Next(nil)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-errs:
		if err != ErrClosed {
			t.Fatalf("reader on closed log returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not observe log close")
	}
}

func TestRemoveDeletesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "q")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustAppend(t, l, "gone")
	if err := l.Remove(); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("log dir still present: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Close()
	if _, err := l.Append("e", "k", &wire.Properties{}, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Ack(0); err != ErrClosed {
		t.Fatalf("ack after close: %v", err)
	}
}

func TestIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if rec.Records != 0 || rec.Truncated {
		t.Fatalf("foreign file treated as segment: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("foreign file removed: %v", err)
	}
}

func TestDiskBytesTracksAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	base := l.DiskBytes()
	body := bytes.Repeat([]byte("z"), 100)
	if _, err := l.Append("e", "k", &wire.Properties{}, body); err != nil {
		t.Fatal(err)
	}
	if got := l.DiskBytes(); got <= base+100 {
		t.Fatalf("DiskBytes=%d after 100-byte body (base %d)", got, base)
	}
}
