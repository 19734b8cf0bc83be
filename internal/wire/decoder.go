package wire

import "fmt"

// Decoder decodes method and content-header frame payloads into targets
// the caller owns. It holds its Reader by value: a frame reader keeps one
// Decoder for its connection, so decoding a frame allocates no reader.
// A Decoder serves one goroutine at a time.
type Decoder struct {
	r Reader
}

// Slots are one channel's decode targets for the frames every message of
// a stream repeats: basic.publish, basic.deliver, basic.ack, basic.nack
// and the content header. They are per channel because content assembly
// is per channel while the frames of different channels interleave on one
// connection.
//
// A decoded slot is valid until that channel's next frame of the same
// kind, so what outlives the frame must be copied out of it. Its strings
// and field tables may be kept as they are: a string field that repeats
// the value the slot already holds keeps that string (interning against
// the channel's last value), so a steady stream decodes without
// allocating, while a value that differs is allocated afresh, as is a
// header's field table on every decode that carries one.
type Slots struct {
	publish BasicPublish
	deliver BasicDeliver
	ack     BasicAck
	nack    BasicNack
	header  ContentHeader
}

// method returns the slot for a hot method, or nil.
func (s *Slots) method(classID, methodID uint16) Method {
	if s == nil || classID != ClassBasic {
		return nil
	}
	switch methodID {
	case 40:
		return &s.publish
	case 60:
		return &s.deliver
	case 80:
		return &s.ack
	case 120:
		return &s.nack
	}
	return nil
}

// Method decodes a method-frame payload. A hot method decodes into its
// slot in s and the result points there; any other method, and every
// method when s is nil, decodes into a freshly allocated value.
func (d *Decoder) Method(payload []byte, s *Slots) (Method, error) {
	d.r = Reader{buf: payload}
	classID := d.r.Short()
	methodID := d.r.Short()
	if d.r.err != nil {
		return nil, d.r.err
	}
	m := s.method(classID, methodID)
	if m == nil {
		m = newMethod(classID, methodID)
	}
	if m == nil {
		return nil, fmt.Errorf("wire: unknown method %d.%d", classID, methodID)
	}
	m.Unmarshal(&d.r)
	return m, d.r.err
}

// Header decodes a header-frame payload into the header slot of s, or
// into a freshly allocated header when s is nil, and returns it.
func (d *Decoder) Header(payload []byte, s *Slots) (*ContentHeader, error) {
	var h *ContentHeader
	if s != nil {
		h = &s.header
	} else {
		h = new(ContentHeader)
	}
	d.r = Reader{buf: payload}
	unmarshalContentHeader(&d.r, h)
	return h, d.r.err
}
