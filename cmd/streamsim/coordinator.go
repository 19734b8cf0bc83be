package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"ds2hpc/internal/metrics"
)

// The coordinator mirrors the component described in §5.2: "it informs
// producers and consumers about which queues to use [and] collects metrics
// from individual consumers/producers and reports the aggregate results".
// Remote producers/consumers (separate streamsim processes) speak a
// JSON-lines protocol over TCP.

// HelloMsg registers a participant with the coordinator.
type HelloMsg struct {
	Role string `json:"role"` // "producer" or "consumer"
	ID   int    `json:"id"`
}

// AssignMsg tells a participant what to do.
type AssignMsg struct {
	Queue    string `json:"queue"`
	ReplyTo  string `json:"reply_to,omitempty"`
	Endpoint string `json:"endpoint"` // AMQP URL
	Messages int    `json:"messages"`
	Err      string `json:"err,omitempty"`
}

// ReportMsg carries a participant's metrics back to the coordinator.
type ReportMsg struct {
	Role     string  `json:"role"`
	ID       int     `json:"id"`
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"`
	RTTNanos []int64 `json:"rtt_nanos,omitempty"`
}

// Coordinator runs the control endpoint of a distributed simulation.
type Coordinator struct {
	ln net.Listener

	mu          sync.Mutex
	readTimeout time.Duration
	assign      func(h HelloMsg) AssignMsg
	col         *metrics.Collector
	reports     int
	expected    int
	done        chan struct{}
	once        sync.Once
	stopOnce    sync.Once
}

// SetReadTimeout bounds each read from a participant (hello and report).
// A hung streamsim process then drops its connection instead of pinning a
// serve goroutine forever; Wait still decides the overall run deadline.
// The default is 60s.
func (c *Coordinator) SetReadTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readTimeout = d
}

func (c *Coordinator) readTimeoutNow() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readTimeout
}

// NewCoordinator starts a coordinator that assigns work via the given
// function and waits for `expected` participant reports.
func NewCoordinator(addr string, expected int, assign func(h HelloMsg) AssignMsg) (*Coordinator, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		ln:          ln,
		readTimeout: 60 * time.Second,
		assign:      assign,
		col:         metrics.NewCollector(),
		expected:    expected,
		done:        make(chan struct{}),
	}
	c.col.Start()
	go c.acceptLoop()
	return c, nil
}

// Addr is the coordinator's control address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops the coordinator.
func (c *Coordinator) Close() error { return c.ln.Close() }

// Wait blocks until all expected reports arrive, then returns the
// aggregate result. On timeout the metrics collector is stopped as well,
// so an aborted run does not leave it marking time (and a later Snapshot
// reflects the abort moment, not some arbitrary later instant).
func (c *Coordinator) Wait(timeout time.Duration) (*metrics.Result, error) {
	select {
	case <-c.done:
		c.stopOnce.Do(c.col.Stop)
		return c.col.Snapshot(), nil
	case <-time.After(timeout):
		c.stopOnce.Do(c.col.Stop)
		return nil, fmt.Errorf("coordinator timed out with %d/%d reports",
			c.reportCount(), c.expected)
	}
}

func (c *Coordinator) reportCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.serve(conn)
	}
}

func (c *Coordinator) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	var hello HelloMsg
	conn.SetReadDeadline(time.Now().Add(c.readTimeoutNow()))
	line, err := br.ReadBytes('\n')
	if err != nil {
		return
	}
	if err := json.Unmarshal(line, &hello); err != nil {
		enc.Encode(AssignMsg{Err: err.Error()})
		return
	}
	if err := enc.Encode(c.assign(hello)); err != nil {
		return
	}
	// The participant runs, then sends its report on the same connection.
	// The fresh deadline covers the run itself.
	conn.SetReadDeadline(time.Now().Add(c.readTimeoutNow()))
	line, err = br.ReadBytes('\n')
	if err != nil {
		return
	}
	// The report is outside input: a negative count would be subtracted
	// from the aggregate, so it is refused like a malformed report.
	var report ReportMsg
	if err := json.Unmarshal(line, &report); err != nil || report.Count < 0 || report.Errors < 0 {
		return
	}
	c.mu.Lock()
	if report.Role == "consumer" {
		c.col.AddConsumed(report.Count)
	} else {
		c.col.AddProduced(report.Count)
	}
	c.col.AddErrors(report.Errors)
	for _, ns := range report.RTTNanos {
		c.col.AddRTT(time.Duration(ns))
	}
	c.reports++
	finished := c.reports >= c.expected
	c.mu.Unlock()
	if finished {
		c.once.Do(func() { close(c.done) })
	}
}

// Participant is the client side of the coordinator protocol.
type Participant struct {
	conn net.Conn
	br   *bufio.Reader
	enc  *json.Encoder
}

// Join connects to a coordinator and registers, returning the assignment.
func Join(coordAddr string, hello HelloMsg) (*Participant, AssignMsg, error) {
	conn, err := net.DialTimeout("tcp", coordAddr, 10*time.Second)
	if err != nil {
		return nil, AssignMsg{}, err
	}
	p := &Participant{conn: conn, br: bufio.NewReader(conn), enc: json.NewEncoder(conn)}
	if err := p.enc.Encode(hello); err != nil {
		conn.Close()
		return nil, AssignMsg{}, err
	}
	line, err := p.br.ReadBytes('\n')
	if err != nil {
		conn.Close()
		return nil, AssignMsg{}, err
	}
	var assign AssignMsg
	if err := json.Unmarshal(line, &assign); err != nil {
		conn.Close()
		return nil, AssignMsg{}, err
	}
	if assign.Err != "" {
		conn.Close()
		return nil, AssignMsg{}, fmt.Errorf("coordinator refused: %s", assign.Err)
	}
	return p, assign, nil
}

// Report sends the participant's metrics and closes the connection.
func (p *Participant) Report(r ReportMsg) error {
	defer p.conn.Close()
	return p.enc.Encode(r)
}
