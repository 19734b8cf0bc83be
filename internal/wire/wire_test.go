package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripPrimitives(t *testing.T) {
	w := NewWriter()
	w.Octet(0xAB)
	w.Short(0x1234)
	w.Long(0xDEADBEEF)
	w.LongLong(0x0123456789ABCDEF)
	w.Float64(math.Pi)
	w.Bool(true)
	w.Bool(false)
	w.ShortStr("hello")
	w.LongStr([]byte("world-longer-string"))
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	r := NewReader(w.Bytes())
	if got := r.Octet(); got != 0xAB {
		t.Errorf("Octet = %x", got)
	}
	if got := r.Short(); got != 0x1234 {
		t.Errorf("Short = %x", got)
	}
	if got := r.Long(); got != 0xDEADBEEF {
		t.Errorf("Long = %x", got)
	}
	if got := r.LongLong(); got != 0x0123456789ABCDEF {
		t.Errorf("LongLong = %x", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.ShortStr(); got != "hello" {
		t.Errorf("ShortStr = %q", got)
	}
	if got := string(r.LongStr()); got != "world-longer-string" {
		t.Errorf("LongStr = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestShortStrTooLong(t *testing.T) {
	w := NewWriter()
	w.ShortStr(strings.Repeat("x", 300))
	if w.Err() != ErrShortStrTooLong {
		t.Fatalf("err = %v, want ErrShortStrTooLong", w.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{0x01})
	r.Long()
	if r.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", r.Err())
	}
}

func TestTableRoundTrip(t *testing.T) {
	in := Table{
		"bool":   true,
		"int8":   int8(-3),
		"int16":  int16(-1000),
		"int32":  int32(1 << 20),
		"int64":  int64(1 << 40),
		"float":  2.5,
		"string": "streaming",
		"bytes":  []byte{1, 2, 3},
		"nested": Table{"x-overflow": "reject-publish"},
		"nil":    nil,
	}
	w := NewWriter()
	w.WriteTable(in)
	if err := w.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := NewReader(w.Bytes())
	out := r.ReadTable()
	if err := r.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, out)
	}
}

func TestTableDeterministicEncoding(t *testing.T) {
	in := Table{"b": int32(2), "a": int32(1), "c": int32(3)}
	w1, w2 := NewWriter(), NewWriter()
	w1.WriteTable(in)
	w2.WriteTable(in)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("table encoding is not deterministic")
	}
}

func TestTableAccessors(t *testing.T) {
	tb := Table{"s": "v", "i": int32(7), "b": true}
	if tb.String("s", "d") != "v" || tb.String("missing", "d") != "d" {
		t.Error("String accessor failed")
	}
	if tb.Int("i", 0) != 7 || tb.Int("missing", 42) != 42 {
		t.Error("Int accessor failed")
	}
	if !tb.Bool("b", false) || tb.Bool("missing", true) != true {
		t.Error("Bool accessor failed")
	}
}

func TestTableUnsupportedValue(t *testing.T) {
	w := NewWriter()
	w.WriteTable(Table{"bad": struct{}{}})
	if w.Err() == nil {
		t.Fatal("expected error for unsupported value type")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: FrameMethod, Channel: 42, Payload: []byte("payload")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 0)
	out, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Channel != in.Channel || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("frame mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameMaxEnforced(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: FrameBody, Channel: 1, Payload: make([]byte, 2048)}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 1024)
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("expected frame-max violation")
	}
}

func TestFrameBadEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] = 0x00
	fr := NewFrameReader(bytes.NewReader(b), 0)
	if _, err := fr.ReadFrame(); err != ErrBadFrameEnd {
		t.Fatalf("err = %v, want ErrBadFrameEnd", err)
	}
}

func TestProtocolHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProtocolHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadProtocolHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadProtocolHeader(bytes.NewReader([]byte("HTTP/1.1"))); err == nil {
		t.Fatal("expected bad header error")
	}
}

// allMethods returns one populated instance of every method the codec
// knows — the round-trip table, and the fuzz targets' seed corpus.
func allMethods() []Method {
	return []Method{
		&ConnectionStart{VersionMajor: 0, VersionMinor: 9,
			ServerProperties: Table{"product": "ds2hpc-broker"},
			Mechanisms:       "PLAIN", Locales: "en_US"},
		&ConnectionStartOk{ClientProperties: Table{"product": "ds2hpc-client"},
			Mechanism: "PLAIN", Response: []byte("\x00guest\x00guest"), Locale: "en_US"},
		&ConnectionTune{ChannelMax: 2047, FrameMax: 131072, Heartbeat: 60},
		&ConnectionTuneOk{ChannelMax: 2047, FrameMax: 131072, Heartbeat: 60},
		&ConnectionOpen{VirtualHost: "/"},
		&ConnectionOpenOk{},
		&ConnectionClose{ReplyCode: ReplySuccess, ReplyText: "bye", ClassID: 0, MethodID: 0},
		&ConnectionCloseOk{},
		&ChannelOpen{},
		&ChannelOpenOk{},
		&ChannelFlow{Active: true},
		&ChannelFlowOk{Active: true},
		&ChannelClose{ReplyCode: ReplyNotFound, ReplyText: "no queue", ClassID: 50, MethodID: 10},
		&ChannelCloseOk{},
		&ExchangeDeclare{Exchange: "bcast", Type: "fanout", Durable: true,
			Arguments: Table{"alternate-exchange": "alt"}},
		&ExchangeDeclareOk{},
		&ExchangeDelete{Exchange: "bcast", IfUnused: true},
		&ExchangeDeleteOk{},
		&QueueDeclare{Queue: "work-0", Durable: true,
			Arguments: Table{"x-overflow": "reject-publish", "x-max-length-bytes": int64(1 << 30)}},
		&QueueDeclareOk{Queue: "work-0", MessageCount: 7, ConsumerCount: 3},
		&QueueBind{Queue: "work-0", Exchange: "bcast", RoutingKey: "rk"},
		&QueueBindOk{},
		&QueueUnbind{Queue: "work-0", Exchange: "bcast", RoutingKey: "rk"},
		&QueueUnbindOk{},
		&QueuePurge{Queue: "work-0"},
		&QueuePurgeOk{MessageCount: 12},
		&QueueDelete{Queue: "work-0", IfEmpty: true},
		&QueueDeleteOk{MessageCount: 4},
		&BasicQos{PrefetchSize: 0, PrefetchCount: 100, Global: false},
		&BasicQosOk{},
		&BasicConsume{Queue: "work-0", ConsumerTag: "ctag-1", NoAck: false},
		&BasicConsumeOk{ConsumerTag: "ctag-1"},
		&BasicCancel{ConsumerTag: "ctag-1"},
		&BasicCancelOk{ConsumerTag: "ctag-1"},
		&BasicPublish{Exchange: "", RoutingKey: "work-0", Mandatory: true},
		&BasicReturn{ReplyCode: ReplyNoRoute, ReplyText: "NO_ROUTE", Exchange: "e", RoutingKey: "rk"},
		&BasicDeliver{ConsumerTag: "ctag-1", DeliveryTag: 99, Redelivered: true,
			Exchange: "e", RoutingKey: "rk"},
		&BasicGet{Queue: "work-0", NoAck: true},
		&BasicGetOk{DeliveryTag: 5, Exchange: "e", RoutingKey: "rk", MessageCount: 2},
		&BasicGetEmpty{},
		&BasicAck{DeliveryTag: 10, Multiple: true},
		&BasicReject{DeliveryTag: 11, Requeue: true},
		&BasicNack{DeliveryTag: 12, Multiple: true, Requeue: true},
		&ConfirmSelect{},
		&ConfirmSelectOk{},
	}
}

func TestMethodRoundTripAll(t *testing.T) {
	for _, in := range allMethods() {
		payload, err := EncodeMethod(in)
		if err != nil {
			t.Fatalf("%T encode: %v", in, err)
		}
		out, err := ParseMethod(payload)
		if err != nil {
			t.Fatalf("%T parse: %v", in, err)
		}
		// Normalize nil tables: an absent table decodes as empty Table.
		normalize(in)
		normalize(out)
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T mismatch:\n in=%#v\nout=%#v", in, in, out)
		}
	}
}

// normalize replaces nil Table fields with empty tables for comparison.
func normalize(m Method) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Type() == reflect.TypeOf(Table{}) && f.IsNil() {
			f.Set(reflect.ValueOf(Table{}))
		}
	}
}

func TestParseMethodUnknown(t *testing.T) {
	w := NewWriter()
	w.Short(999)
	w.Short(1)
	if _, err := ParseMethod(w.Bytes()); err == nil {
		t.Fatal("expected unknown method error")
	}
}

func TestContentHeaderRoundTrip(t *testing.T) {
	in := &ContentHeader{
		ClassID:  ClassBasic,
		BodySize: 1 << 20,
		Properties: Properties{
			ContentType:   "application/octet-stream",
			Headers:       Table{"seq": int64(17)},
			DeliveryMode:  Transient,
			Priority:      4,
			CorrelationID: "corr-1",
			ReplyTo:       "reply-q-3",
			MessageID:     "msg-0001",
			Timestamp:     123456789,
			AppID:         "streamsim",
		},
	}
	payload, err := EncodeContentHeader(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseContentHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestContentHeaderEmptyProperties(t *testing.T) {
	in := &ContentHeader{ClassID: ClassBasic, BodySize: 0}
	payload, err := EncodeContentHeader(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseContentHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

// Property-based tests.

func TestQuickShortStrRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 255 {
			s = s[:200]
		}
		w := NewWriter()
		w.ShortStr(s)
		r := NewReader(w.Bytes())
		return r.ShortStr() == s && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLongStrRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		w := NewWriter()
		w.LongStr(b)
		r := NewReader(w.Bytes())
		return bytes.Equal(r.LongStr(), b) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(channel uint16, payload []byte) bool {
		if len(payload) > DefaultFrameMax {
			payload = payload[:DefaultFrameMax]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: FrameBody, Channel: channel, Payload: payload}); err != nil {
			return false
		}
		fr := NewFrameReader(&buf, 0)
		out, err := fr.ReadFrame()
		return err == nil && out.Channel == channel && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTableStringValues(t *testing.T) {
	f := func(m map[string]string) bool {
		in := Table{}
		for k, v := range m {
			if len(k) > 255 {
				k = k[:255]
			}
			in[k] = v
		}
		w := NewWriter()
		w.WriteTable(in)
		r := NewReader(w.Bytes())
		out := r.ReadTable()
		return r.Err() == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
