// Package scistream reimplements the SciStream memory-to-memory streaming
// toolkit (Chung et al., HPDC '22) that the paper's PRS architecture uses:
// a user client (S2UC) brokers a session between producer-side and
// consumer-side control servers (S2CS), which launch data-server proxies
// (S2DS) that bridge the facility networks over a TLS overlay tunnel.
//
// Two tunnel drivers are provided, matching the paper's §4.4 deployment:
//
//   - Stunnel: every relayed client connection is multiplexed onto a small
//     fixed set of long-lived TLS flows (default one), with a hard limit of
//     16 concurrent streams — reproducing both the flat throughput scaling
//     and the >16-consumer infeasibility observed in §5.3.
//   - HAProxy: one TLS connection per relayed client connection, leased
//     from a pre-warmed pool, load-balanced round-robin across targets.
package scistream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// mux frame types.
const (
	muxSYN  byte = 1 // open stream
	muxDATA byte = 2
	muxFIN  byte = 3 // half/full close
)

// maxFrame bounds one mux frame's payload: writers split at it and the
// read loop closes a mux whose peer announces a longer frame, so a corrupt
// or hostile header cannot make it allocate.
const maxFrame = 64 * 1024

// ErrTooManyStreams is returned when the Stunnel stream cap is exceeded.
var ErrTooManyStreams = errors.New("scistream: tunnel stream limit reached")

// Mux multiplexes byte streams over one underlying connection. It provides
// the Stunnel-style "few long-lived TLS flows" data path: all streams share
// the connection's bandwidth and head-of-line blocking, which is what makes
// Stunnel-based PRS throughput flat in the paper's work-sharing experiment.
type Mux struct {
	conn net.Conn

	writeMu sync.Mutex

	mu      sync.Mutex
	streams map[uint32]*muxStream
	nextID  uint32
	maxed   int // stream cap; 0 = unlimited
	closed  bool

	acceptCh chan *muxStream
	done     chan struct{}
}

// NewMux wraps conn. Client muxes allocate odd stream ids, servers even, so
// both ends may open streams without collision. maxStreams of 0 means
// unlimited.
func NewMux(conn net.Conn, server bool, maxStreams int) *Mux {
	m := &Mux{
		conn:     conn,
		streams:  map[uint32]*muxStream{},
		maxed:    maxStreams,
		acceptCh: make(chan *muxStream, 16),
		done:     make(chan struct{}),
	}
	if server {
		m.nextID = 2
	} else {
		m.nextID = 1
	}
	go m.readLoop()
	return m
}

// Open creates a new outbound stream.
func (m *Mux) Open() (net.Conn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, net.ErrClosed
	}
	if m.maxed > 0 && len(m.streams) >= m.maxed {
		m.mu.Unlock()
		return nil, ErrTooManyStreams
	}
	id := m.nextID
	m.nextID += 2
	s := newMuxStream(m, id)
	m.streams[id] = s
	m.mu.Unlock()
	if err := m.writeFrame(muxSYN, id, nil); err != nil {
		m.dropStream(id)
		return nil, err
	}
	return s, nil
}

// Accept waits for a peer-initiated stream.
func (m *Mux) Accept() (net.Conn, error) {
	select {
	case s, ok := <-m.acceptCh:
		if !ok {
			return nil, net.ErrClosed
		}
		return s, nil
	case <-m.done:
		return nil, net.ErrClosed
	}
}

// NumStreams reports the number of live streams.
func (m *Mux) NumStreams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// Close terminates the mux and all streams.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	streams := make([]*muxStream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = map[uint32]*muxStream{}
	m.mu.Unlock()
	close(m.done)
	for _, s := range streams {
		s.abort()
	}
	return m.conn.Close()
}

func (m *Mux) dropStream(id uint32) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

func (m *Mux) writeFrame(typ byte, id uint32, payload []byte) error {
	var hdr [9]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], id)
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if _, err := m.conn.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := m.conn.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func (m *Mux) readLoop() {
	defer m.Close()
	var hdr [9]byte
	// One payload buffer for the mux's lifetime: push copies out of it.
	buf := make([]byte, maxFrame)
	for {
		if _, err := io.ReadFull(m.conn, hdr[:]); err != nil {
			return
		}
		typ := hdr[0]
		id := binary.BigEndian.Uint32(hdr[1:5])
		n := binary.BigEndian.Uint32(hdr[5:9])
		if n > maxFrame {
			return
		}
		payload := buf[:n]
		if _, err := io.ReadFull(m.conn, payload); err != nil {
			return
		}
		switch typ {
		case muxSYN:
			m.mu.Lock()
			if m.maxed > 0 && len(m.streams) >= m.maxed {
				m.mu.Unlock()
				// Refuse by immediately FINing the stream.
				m.writeFrame(muxFIN, id, nil)
				continue
			}
			s := newMuxStream(m, id)
			m.streams[id] = s
			m.mu.Unlock()
			select {
			case m.acceptCh <- s:
			case <-m.done:
				return
			}
		case muxDATA:
			m.mu.Lock()
			s := m.streams[id]
			m.mu.Unlock()
			if s != nil {
				// Blocking here propagates backpressure to the shared
				// tunnel — the Stunnel serialization behaviour.
				s.push(payload)
			}
		case muxFIN:
			// FIN is a half-close: the peer has finished writing. The
			// stream stays registered (and readable for buffered data)
			// until the local side also closes its write direction.
			m.mu.Lock()
			s := m.streams[id]
			m.mu.Unlock()
			if s != nil && s.closeRead() {
				m.dropStream(id)
			}
		}
	}
}

// maxStreamBuf bounds the bytes buffered per stream. A full buffer blocks
// the mux read loop, which stalls every stream sharing the tunnel — the
// head-of-line blocking that makes Stunnel-based PRS throughput flat.
const maxStreamBuf = 512 * 1024

// muxStream is one logical stream; it implements net.Conn with TCP-like
// half-close semantics: CloseWrite sends a FIN while the read direction
// keeps draining, so relays built on the mux preserve the
// request-drain-then-respond exchanges AMQP teardown depends on.
type muxStream struct {
	m  *Mux
	id uint32

	mu          sync.Mutex
	cond        *sync.Cond
	buf         []byte
	readClosed  bool // no more data will arrive (peer FIN or local close)
	writeClosed bool // local FIN sent
}

func newMuxStream(m *Mux, id uint32) *muxStream {
	s := &muxStream{m: m, id: id}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push appends received data, blocking while the buffer is full. The
// blocking propagates backpressure to the shared tunnel read loop — the
// Stunnel serialization behaviour.
func (s *muxStream) push(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) >= maxStreamBuf && !s.readClosed {
		s.cond.Wait()
	}
	if s.readClosed {
		return
	}
	s.buf = append(s.buf, p...)
	s.cond.Broadcast()
}

func (s *muxStream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 && !s.readClosed {
		s.cond.Wait()
	}
	if len(s.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	if len(s.buf) == 0 {
		s.buf = nil
	}
	s.cond.Broadcast()
	return n, nil
}

func (s *muxStream) Write(p []byte) (int, error) {
	s.mu.Lock()
	closed := s.writeClosed
	s.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	// Chunk writes so one stream cannot hold the tunnel write lock for an
	// arbitrarily long burst.
	written := 0
	for written < len(p) {
		end := written + maxFrame
		if end > len(p) {
			end = len(p)
		}
		if err := s.m.writeFrame(muxDATA, s.id, p[written:end]); err != nil {
			return written, err
		}
		written = end
	}
	return written, nil
}

// CloseWrite half-closes the stream: the peer observes EOF once it drains
// the data already sent, while this side keeps reading.
func (s *muxStream) CloseWrite() error {
	s.mu.Lock()
	if s.writeClosed {
		s.mu.Unlock()
		return nil
	}
	s.writeClosed = true
	done := s.readClosed
	s.mu.Unlock()
	s.m.writeFrame(muxFIN, s.id, nil)
	if done {
		s.m.dropStream(s.id)
	}
	return nil
}

// Close fully closes the stream in both directions.
func (s *muxStream) Close() error {
	s.mu.Lock()
	sendFIN := !s.writeClosed
	s.writeClosed = true
	s.readClosed = true
	s.buf = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	if sendFIN {
		s.m.writeFrame(muxFIN, s.id, nil)
	}
	s.m.dropStream(s.id)
	return nil
}

// closeRead marks the read direction finished (peer FIN); buffered data
// stays readable. It reports whether the stream is now closed both ways.
func (s *muxStream) closeRead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readClosed = true
	s.cond.Broadcast()
	return s.writeClosed
}

// abort tears the stream down without touching the (dead) tunnel.
func (s *muxStream) abort() {
	s.mu.Lock()
	s.readClosed = true
	s.writeClosed = true
	s.buf = nil
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *muxStream) LocalAddr() net.Addr                { return s.m.conn.LocalAddr() }
func (s *muxStream) RemoteAddr() net.Addr               { return s.m.conn.RemoteAddr() }
func (s *muxStream) SetDeadline(t time.Time) error      { return nil }
func (s *muxStream) SetReadDeadline(t time.Time) error  { return nil }
func (s *muxStream) SetWriteDeadline(t time.Time) error { return nil }

var _ net.Conn = (*muxStream)(nil)

// String identifies the stream for diagnostics.
func (s *muxStream) String() string { return fmt.Sprintf("mux-stream-%d", s.id) }
