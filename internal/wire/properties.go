package wire

// Property flag bits for the content header, matching AMQP 0-9-1 basic-class
// property ordering (high bit first).
const (
	flagContentType     = 1 << 15
	flagContentEncoding = 1 << 14
	flagHeaders         = 1 << 13
	flagDeliveryMode    = 1 << 12
	flagPriority        = 1 << 11
	flagCorrelationID   = 1 << 10
	flagReplyTo         = 1 << 9
	flagExpiration      = 1 << 8
	flagMessageID       = 1 << 7
	flagTimestamp       = 1 << 6
	flagType            = 1 << 5
	flagUserID          = 1 << 4
	flagAppID           = 1 << 3
)

// Delivery modes.
const (
	Transient  byte = 1
	Persistent byte = 2
)

// Properties are the basic-class content properties carried in a content
// header frame alongside the body size.
type Properties struct {
	ContentType     string
	ContentEncoding string
	Headers         Table
	DeliveryMode    byte
	Priority        byte
	CorrelationID   string
	ReplyTo         string
	Expiration      string
	MessageID       string
	Timestamp       uint64 // nanoseconds since epoch (paper RTTs need sub-ms)
	Type            string
	UserID          string
	AppID           string
}

// ContentHeader is the payload of a header frame.
type ContentHeader struct {
	ClassID    uint16
	BodySize   uint64
	Properties Properties
}

// EncodeContentHeader serializes h into a header-frame payload.
func EncodeContentHeader(h *ContentHeader) ([]byte, error) {
	w := NewWriter()
	marshalContentHeader(w, h.ClassID, h.BodySize, &h.Properties)
	return w.Bytes(), w.Err()
}

// MarshalContentHeader appends a header-frame payload for the given class,
// body size and properties to w. It is the allocation-free sibling of
// EncodeContentHeader for callers that manage their own pooled Writer —
// the broker's segment log encodes message properties with it so a durable
// append reuses the wire framing without an intermediate byte slice.
func MarshalContentHeader(w *Writer, classID uint16, bodySize uint64, p *Properties) {
	marshalContentHeader(w, classID, bodySize, p)
}

// marshalContentHeader appends a header-frame payload to w (shared by the
// standalone encoder and the coalescing frame builder; taking the fields
// rather than a *ContentHeader keeps hot-path callers allocation-free).
func marshalContentHeader(w *Writer, classID uint16, bodySize uint64, p *Properties) {
	w.Short(classID)
	w.Short(0) // weight, always zero
	w.LongLong(bodySize)

	var flags uint16
	if p.ContentType != "" {
		flags |= flagContentType
	}
	if p.ContentEncoding != "" {
		flags |= flagContentEncoding
	}
	if len(p.Headers) > 0 {
		flags |= flagHeaders
	}
	if p.DeliveryMode != 0 {
		flags |= flagDeliveryMode
	}
	if p.Priority != 0 {
		flags |= flagPriority
	}
	if p.CorrelationID != "" {
		flags |= flagCorrelationID
	}
	if p.ReplyTo != "" {
		flags |= flagReplyTo
	}
	if p.Expiration != "" {
		flags |= flagExpiration
	}
	if p.MessageID != "" {
		flags |= flagMessageID
	}
	if p.Timestamp != 0 {
		flags |= flagTimestamp
	}
	if p.Type != "" {
		flags |= flagType
	}
	if p.UserID != "" {
		flags |= flagUserID
	}
	if p.AppID != "" {
		flags |= flagAppID
	}
	w.Short(flags)

	if flags&flagContentType != 0 {
		w.ShortStr(p.ContentType)
	}
	if flags&flagContentEncoding != 0 {
		w.ShortStr(p.ContentEncoding)
	}
	if flags&flagHeaders != 0 {
		w.WriteTable(p.Headers)
	}
	if flags&flagDeliveryMode != 0 {
		w.Octet(p.DeliveryMode)
	}
	if flags&flagPriority != 0 {
		w.Octet(p.Priority)
	}
	if flags&flagCorrelationID != 0 {
		w.ShortStr(p.CorrelationID)
	}
	if flags&flagReplyTo != 0 {
		w.ShortStr(p.ReplyTo)
	}
	if flags&flagExpiration != 0 {
		w.ShortStr(p.Expiration)
	}
	if flags&flagMessageID != 0 {
		w.ShortStr(p.MessageID)
	}
	if flags&flagTimestamp != 0 {
		w.LongLong(p.Timestamp)
	}
	if flags&flagType != 0 {
		w.ShortStr(p.Type)
	}
	if flags&flagUserID != 0 {
		w.ShortStr(p.UserID)
	}
	if flags&flagAppID != 0 {
		w.ShortStr(p.AppID)
	}
}

// ParseContentHeader decodes a header-frame payload into a freshly
// allocated header the caller keeps. It is the Decoder with no slots, for
// cold paths and tests.
func ParseContentHeader(payload []byte) (*ContentHeader, error) {
	var d Decoder
	return d.Header(payload, nil)
}

// unmarshalContentHeader decodes a header-frame payload into h, assigning
// every field: a property the flags leave out is cleared, so a header
// decoded into a reused slot never keeps a value of the one before it.
func unmarshalContentHeader(r *Reader, h *ContentHeader) {
	h.ClassID = r.Short()
	r.Short() // weight
	h.BodySize = r.LongLong()
	flags := r.Short()

	p := &h.Properties
	r.propStr(flags&flagContentType != 0, &p.ContentType)
	r.propStr(flags&flagContentEncoding != 0, &p.ContentEncoding)
	p.Headers = nil
	if flags&flagHeaders != 0 {
		p.Headers = r.ReadTable()
	}
	p.DeliveryMode = 0
	if flags&flagDeliveryMode != 0 {
		p.DeliveryMode = r.Octet()
	}
	p.Priority = 0
	if flags&flagPriority != 0 {
		p.Priority = r.Octet()
	}
	r.propStr(flags&flagCorrelationID != 0, &p.CorrelationID)
	r.propStr(flags&flagReplyTo != 0, &p.ReplyTo)
	r.propStr(flags&flagExpiration != 0, &p.Expiration)
	r.propStr(flags&flagMessageID != 0, &p.MessageID)
	p.Timestamp = 0
	if flags&flagTimestamp != 0 {
		p.Timestamp = r.LongLong()
	}
	r.propStr(flags&flagType != 0, &p.Type)
	r.propStr(flags&flagUserID != 0, &p.UserID)
	r.propStr(flags&flagAppID != 0, &p.AppID)
}

// propStr decodes an optional short-string property into *dst, or clears
// it when the property is absent.
func (r *Reader) propStr(present bool, dst *string) {
	if present {
		r.shortStrInto(dst)
	} else {
		*dst = ""
	}
}
