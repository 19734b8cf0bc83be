package broker

import (
	"crypto/tls"
	"fmt"
	"log"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/netem"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/wire"
)

// Process-wide connection telemetry across all broker nodes.
var (
	telConnsAccepted = telemetry.Default.Counter("broker.connections_accepted")
	telConnsOpen     = telemetry.Default.Gauge("broker.connections_open")
)

// Config configures a broker server (one RabbitMQ-like node).
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// TLS, if non-nil, serves AMQPS (the DTS deployment's node-exposed
	// TLS port 30671 in the paper).
	TLS *tls.Config
	// Link shapes all accepted connections (the DSN's network interface).
	Link *netem.Link
	// FrameMax is the advertised maximum frame payload size.
	FrameMax uint32
	// Heartbeat is the advertised heartbeat interval; zero disables.
	Heartbeat time.Duration
	// MemoryLimit bounds ready bytes per vhost (80% of broker RAM in the
	// paper's configuration). Zero means unlimited.
	MemoryLimit int64
	// DataDir enables durable queue storage: every durable queue declare
	// opens a segment log under DataDir/<vhost>/<queue> (path components
	// query-escaped), and Listen recovers whatever a previous incarnation
	// left there before accepting connections. Empty disables durability
	// — durable declares are accepted but stay memory-only.
	DataDir string
	// Durability tunes the per-queue segment logs when DataDir is set
	// (segment size, fsync policy, retention).
	Durability seglog.Options
	// Cluster, when non-nil, makes this node one member of a clustered
	// data plane: queue declares, consumes, and default-exchange
	// publishes for queues mastered elsewhere are ensured, redirected,
	// or federated through the hook (see ClusterHook). Nil keeps the
	// node standalone.
	Cluster ClusterHook
	// Logger receives connection errors; nil discards them.
	Logger *log.Logger
}

// Server is one broker node.
type Server struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	vhosts map[string]*VHost
	conns  map[*srvConn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Listen starts a broker node and its accept loop.
func Listen(cfg Config) (*Server, error) {
	if cfg.FrameMax == 0 {
		cfg.FrameMax = wire.DefaultFrameMax
	}
	// The listener hands out raw sockets; newSrvConn stacks TLS and the
	// link shaping on each one, above its pre-read hook.
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		vhosts: map[string]*VHost{},
		conns:  map[*srvConn]struct{}{},
	}
	if cfg.DataDir != "" {
		// Recover durable state before the first connection can observe
		// it: re-declaring each queue found on disk replays its segment
		// log and re-enqueues unacked records.
		if err := s.recoverDurable(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// recoverDurable walks DataDir (vhost directories holding queue
// directories, names query-escaped) and re-declares every durable queue it
// finds, which opens each segment log and restores its unacked records.
func (s *Server) recoverDurable() error {
	vhDirs, err := os.ReadDir(s.cfg.DataDir)
	if os.IsNotExist(err) {
		return nil // first boot: nothing to recover
	}
	if err != nil {
		return fmt.Errorf("broker: recover %s: %w", s.cfg.DataDir, err)
	}
	for _, vd := range vhDirs {
		if !vd.IsDir() {
			continue
		}
		vhName, err := url.QueryUnescape(vd.Name())
		if err != nil {
			continue // not a directory this broker wrote
		}
		vh := s.VHost(vhName)
		qDirs, err := os.ReadDir(filepath.Join(s.cfg.DataDir, vd.Name()))
		if err != nil {
			return fmt.Errorf("broker: recover vhost %q: %w", vhName, err)
		}
		for _, qd := range qDirs {
			if !qd.IsDir() {
				continue
			}
			qName, err := url.QueryUnescape(qd.Name())
			if err != nil {
				continue
			}
			if _, err := os.Stat(filepath.Join(s.cfg.DataDir, vd.Name(), qd.Name(), MirrorMarker)); err == nil {
				// A standby mirror replica, not a queue this node mastered:
				// leave it for the replication layer (promotion removes the
				// marker; re-mirroring wipes and re-seeds the directory).
				continue
			}
			if _, err := vh.DeclareQueue(qName, true, false, false, false, nil); err != nil {
				return fmt.Errorf("broker: recover queue %q: %w", qName, err)
			}
			if s.cfg.Cluster != nil {
				// A recovered queue is mastered here again; re-pin it so
				// the directory routes to this node after a restart.
				s.cfg.Cluster.RegisterQueue(vhName, qName, true)
			}
		}
	}
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// VHost returns (creating on demand) the named vhost.
func (s *Server) VHost(name string) *VHost {
	s.mu.Lock()
	defer s.mu.Unlock()
	vh, ok := s.vhosts[name]
	if !ok {
		vh = NewVHost(name)
		vh.MemoryLimit = s.cfg.MemoryLimit
		vh.cluster = s.cfg.Cluster
		if s.cfg.DataDir != "" {
			vh.logDir = filepath.Join(s.cfg.DataDir, url.QueryEscape(name))
			vh.logOpts = s.cfg.Durability
		}
		s.vhosts[name] = vh
	}
	return vh
}

// Close stops the listener, terminates all connections, cleanly closes
// every durable queue's segment log (flush + fsync), so a restart
// recovers without truncation, and releases the message bodies still
// queued, so wire-loan accounting returns to zero.
func (s *Server) Close() error {
	conns, vhosts, ok := s.stop()
	if !ok {
		return nil
	}
	err := s.ln.Close()
	for _, c := range conns {
		c.shutdown()
	}
	s.wg.Wait()
	for _, vh := range vhosts {
		vh.close()
	}
	return err
}

// Crash hard-stops the node as a SIGKILL would: the listener closes,
// every durable queue's log is crashed first — its unflushed write buffer
// dies, leaving on disk exactly what the OS had received at the kill
// point — and only then are connections dropped without protocol
// teardown niceties. In-memory message bodies are still released back to
// the pool (the host process lives on; only the simulated node dies), so
// wire-loan accounting stays balanced across a crash/restart cycle. The
// on-disk state is what a subsequent Listen with the same DataDir
// recovers.
func (s *Server) Crash() {
	conns, vhosts, ok := s.stop()
	if !ok {
		return
	}
	s.ln.Close()
	for _, vh := range vhosts {
		vh.crash()
	}
	for _, c := range conns {
		c.shutdown()
	}
	s.wg.Wait()
}

// stop marks the server closed and returns its connections and vhosts,
// or false if it was closed already.
func (s *Server) stop() ([]*srvConn, []*VHost, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, false
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	vhosts := make([]*VHost, 0, len(s.vhosts))
	for _, vh := range s.vhosts {
		vhosts = append(vhosts, vh)
	}
	return conns, vhosts, true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		telConnsAccepted.Inc()
		sc := newSrvConn(s, c)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		telConnsOpen.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.serve()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
			telConnsOpen.Add(-1)
		}()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}
