package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Frame types.
const (
	FrameMethod    byte = 1
	FrameHeader    byte = 2
	FrameBody      byte = 3
	FrameHeartbeat byte = 8

	// FrameEnd terminates every frame on the wire.
	FrameEnd byte = 0xCE
)

// DefaultFrameMax is the negotiated maximum frame size (payload + 8 bytes of
// framing) used when the client does not tune it. Large message bodies are
// split across multiple body frames of at most this size.
const DefaultFrameMax = 128 * 1024

// MaxBodyBytes bounds the body size a content header may declare. Both
// ends presize the body buffer from the header's BodySize, a 64-bit field
// off the wire, so an absurd value must fail the publish or the
// connection rather than reserve the memory (or panic in makeslice).
const MaxBodyBytes = 1 << 27 // 128 MiB, far above any paper workload

// ProtocolHeader is sent by clients as the first bytes of a connection.
var ProtocolHeader = []byte{'D', 'S', '2', 'H', 0, 0, 9, 1}

// Frame is a single protocol frame.
type Frame struct {
	Type    byte
	Channel uint16
	Payload []byte
}

// WriteFrame writes one frame to w. The payload is emitted verbatim.
func WriteFrame(w io.Writer, f Frame) error {
	var hdr [7]byte
	hdr[0] = f.Type
	binary.BigEndian.PutUint16(hdr[1:3], f.Channel)
	binary.BigEndian.PutUint32(hdr[3:7], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	_, err := w.Write(frameEndOctet[:])
	return err
}

var frameEndOctet = [1]byte{FrameEnd}

// FrameReader reads frames from a buffered stream, enforcing a maximum
// payload size.
type FrameReader struct {
	br       *bufio.Reader
	frameMax uint32
	scratch  [7]byte

	// loan backs the payload of the most recently returned frame; it is
	// recycled into the buffer pool at the start of the next ReadFrame.
	loan *[]byte
}

// NewFrameReader wraps r. frameMax of 0 means DefaultFrameMax.
func NewFrameReader(r io.Reader, frameMax uint32) *FrameReader {
	if frameMax == 0 {
		frameMax = DefaultFrameMax
	}
	return &FrameReader{br: bufio.NewReaderSize(r, 64*1024), frameMax: frameMax}
}

// SetFrameMax adjusts the maximum accepted payload size after tuning.
func (fr *FrameReader) SetFrameMax(max uint32) {
	if max > 0 {
		fr.frameMax = max
	}
}

// ReadFrame reads the next frame. The returned payload is loaned from a
// buffer pool: it stays valid only until the next ReadFrame call on this
// reader, so callers that retain payload bytes past one dispatch must copy
// them (method parsing and content assembly already copy).
func (fr *FrameReader) ReadFrame() (Frame, error) {
	if fr.loan != nil {
		putBuf(fr.loan)
		fr.loan = nil
	}
	if _, err := io.ReadFull(fr.br, fr.scratch[:]); err != nil {
		return Frame{}, err
	}
	f := Frame{
		Type:    fr.scratch[0],
		Channel: binary.BigEndian.Uint16(fr.scratch[1:3]),
	}
	size := binary.BigEndian.Uint32(fr.scratch[3:7])
	if size > fr.frameMax {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, size, fr.frameMax)
	}
	if size > 0 {
		fr.loan = getBuf(int(size))
		f.Payload = (*fr.loan)[:size]
		if _, err := io.ReadFull(fr.br, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	end, err := fr.br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	if end != FrameEnd {
		return Frame{}, ErrBadFrameEnd
	}
	return f, nil
}

// ReadProtocolHeader consumes and validates the client protocol header.
func ReadProtocolHeader(r io.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	for i, b := range ProtocolHeader {
		if hdr[i] != b {
			return fmt.Errorf("wire: bad protocol header %q", hdr[:])
		}
	}
	return nil
}

// WriteProtocolHeader emits the client protocol header.
func WriteProtocolHeader(w io.Writer) error {
	_, err := w.Write(ProtocolHeader)
	return err
}
