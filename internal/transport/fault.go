package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ds2hpc/internal/telemetry"
)

var (
	injectedResets = telemetry.Default.Counter("transport.injected_resets")
	refusedDials   = telemetry.Default.Counter("transport.refused_dials")
	injectedFlaps  = telemetry.Default.Counter("transport.injected_flaps")
	spikedWrites   = telemetry.Default.Counter("transport.spiked_writes")
	faultDials     = telemetry.Default.Counter("transport.fault_dials")
)

// ErrInjected is the error surfaced by connections and dials that an
// Injector has faulted.
var ErrInjected = errors.New("transport: injected fault")

// Injector scripts the WAN failures a cross-facility link actually sees
// into every connection dialed through its Hop: link flaps (all live
// connections reset, new dials refused until the link heals), mid-stream
// connection resets, latency spikes, and hard partitions. Deployments
// compose it as the outermost hop of a client path, so a single Flap
// models a facility-spanning outage across every client at once.
//
// Faults can be triggered manually (Flap, Partition/Heal, ResetConns,
// SetLatencySpike) or armed on traffic volume (FlapAfterBytes,
// FlapEveryBytes) so scripted scenarios stay deterministic regardless of
// how fast the run progresses.
type Injector struct {
	mu       sync.Mutex
	conns    map[*faultConn]struct{}
	down     bool
	extraLat time.Duration
	armNext  int64 // byte threshold arming the next flap; 0 = disarmed
	armEvery int64 // re-arm interval; 0 = one-shot
	armLeft  int   // flaps remaining before disarm; <0 = unlimited
	armDown  time.Duration

	bytes   atomic.Int64
	dials   atomic.Uint64
	refused atomic.Uint64
	resets  atomic.Uint64
	flaps   atomic.Uint64
}

// NewInjector builds an idle injector (no faults until scripted).
func NewInjector() *Injector {
	return &Injector{conns: map[*faultConn]struct{}{}}
}

// Hop returns the path hop that routes connections through the injector.
func (in *Injector) Hop() Hop {
	return HopFunc("fault", func(next DialFunc) DialFunc {
		return func(network, addr string) (net.Conn, error) {
			if in.isDown() {
				in.refused.Add(1)
				refusedDials.Inc()
				return nil, ErrInjected
			}
			c, err := next(network, addr)
			if err != nil {
				return nil, err
			}
			fc := &faultConn{Conn: c, in: in}
			in.mu.Lock()
			in.conns[fc] = struct{}{}
			in.mu.Unlock()
			in.dials.Add(1)
			faultDials.Inc()
			return fc, nil
		}
	})
}

func (in *Injector) isDown() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.down
}

// Partition hard-partitions the path: every live connection is reset and
// new dials are refused until Heal.
func (in *Injector) Partition() {
	in.mu.Lock()
	in.down = true
	conns := make([]*faultConn, 0, len(in.conns))
	for fc := range in.conns {
		conns = append(conns, fc)
	}
	in.mu.Unlock()
	for _, fc := range conns {
		fc.kill()
	}
}

// Heal ends a partition; new dials succeed again.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.down = false
	in.mu.Unlock()
}

// Flap partitions the path now and heals it after down elapses — one
// WAN link flap. It returns immediately.
func (in *Injector) Flap(down time.Duration) {
	in.flaps.Add(1)
	injectedFlaps.Inc()
	in.Partition()
	time.AfterFunc(down, in.Heal)
}

// ResetConns resets every live connection mid-stream without refusing
// new dials (a transient middlebox reset rather than a link outage).
func (in *Injector) ResetConns() {
	in.mu.Lock()
	conns := make([]*faultConn, 0, len(in.conns))
	for fc := range in.conns {
		conns = append(conns, fc)
	}
	in.mu.Unlock()
	for _, fc := range conns {
		fc.kill()
	}
}

// SetLatencySpike adds d of extra delay to every write until cleared
// with SetLatencySpike(0) — congestion or a rerouted path.
func (in *Injector) SetLatencySpike(d time.Duration) {
	in.mu.Lock()
	in.extraLat = d
	in.mu.Unlock()
}

// FlapAfterBytes arms a one-shot link flap that fires once n total bytes
// have crossed the injector, keeping fault timing deterministic relative
// to run progress rather than wall time.
func (in *Injector) FlapAfterBytes(n int64, down time.Duration) {
	in.mu.Lock()
	in.armNext = in.bytes.Load() + n
	in.armEvery = 0
	in.armLeft = 1
	in.armDown = down
	in.mu.Unlock()
}

// FlapEveryBytes arms a recurring flap every n bytes, at most limit
// times (limit <= 0 means unlimited) — the fault-rate knob the
// resilience benchmarks sweep. Note the byte meter keeps counting the
// retransmission traffic each outage causes (requeued redeliveries,
// replayed publishes), so an unlimited low-interval arm on a small run
// degenerates into a flap storm; bound it.
func (in *Injector) FlapEveryBytes(n int64, down time.Duration, limit int) {
	in.mu.Lock()
	in.armNext = in.bytes.Load() + n
	in.armEvery = n
	if limit <= 0 {
		limit = -1
	}
	in.armLeft = limit
	in.armDown = down
	in.mu.Unlock()
}

// count charges traversed bytes and fires any armed byte-triggered flap.
func (in *Injector) count(n int) {
	if n <= 0 {
		return
	}
	total := in.bytes.Add(int64(n))
	in.mu.Lock()
	fire := in.armNext > 0 && total >= in.armNext && in.armLeft != 0
	var down time.Duration
	if fire {
		down = in.armDown
		if in.armLeft > 0 {
			in.armLeft--
		}
		if in.armEvery > 0 && in.armLeft != 0 {
			in.armNext = total + in.armEvery
		} else {
			in.armNext = 0
		}
	}
	in.mu.Unlock()
	if fire {
		go in.Flap(down)
	}
}

func (in *Injector) latency() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.extraLat
}

func (in *Injector) drop(fc *faultConn) {
	in.mu.Lock()
	delete(in.conns, fc)
	in.mu.Unlock()
}

// Stats is a snapshot of injector activity.
type Stats struct {
	// Dials counts connections admitted through the injector.
	Dials uint64
	// Refused counts dials rejected while partitioned.
	Refused uint64
	// Resets counts live connections killed mid-stream.
	Resets uint64
	// Flaps counts link flaps fired.
	Flaps uint64
	// Bytes is the total traffic that traversed injected connections.
	Bytes int64
}

// Stats reports injector activity so scenarios can assert the scripted
// faults actually fired.
func (in *Injector) Stats() Stats {
	return Stats{
		Dials:   in.dials.Load(),
		Refused: in.refused.Load(),
		Resets:  in.resets.Load(),
		Flaps:   in.flaps.Load(),
		Bytes:   in.bytes.Load(),
	}
}

// faultConn wraps one injected connection.
type faultConn struct {
	net.Conn
	in     *Injector
	killed atomic.Bool
}

// kill resets the connection mid-stream: blocked reads and writes fail
// immediately, like a TCP RST from a dead middlebox.
func (fc *faultConn) kill() {
	if fc.killed.CompareAndSwap(false, true) {
		fc.in.resets.Add(1)
		injectedResets.Inc()
		fc.Conn.Close()
	}
}

func (fc *faultConn) Read(p []byte) (int, error) {
	if fc.killed.Load() {
		return 0, ErrInjected
	}
	n, err := fc.Conn.Read(p)
	fc.in.count(n)
	if err != nil && fc.killed.Load() {
		err = ErrInjected
	}
	return n, err
}

func (fc *faultConn) Write(p []byte) (int, error) {
	if fc.killed.Load() {
		return 0, ErrInjected
	}
	if d := fc.in.latency(); d > 0 {
		spikedWrites.Inc()
		time.Sleep(d)
	}
	n, err := fc.Conn.Write(p)
	fc.in.count(n)
	if err != nil && fc.killed.Load() {
		err = ErrInjected
	}
	return n, err
}

func (fc *faultConn) Close() error {
	fc.in.drop(fc)
	return fc.Conn.Close()
}

// Unwrap exposes the inner connection for half-close propagation.
func (fc *faultConn) Unwrap() net.Conn { return fc.Conn }
