package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/telemetry"
	"ds2hpc/internal/transport"
)

// Federation: the inter-node link layer. When a publish (or declare)
// lands on a node that does not master its queue, the node forwards it
// to the master over a fedLink — an internal/amqp client connection the
// hub dials lazily per (master address, vhost), carried over whatever
// transport.DialFunc the deployment uses between its broker nodes (plain
// TCP in PRS/MSS, the TLS hop in DTS), with bounded handshakes. A forward
// is a client publish: bodies of 64 KiB and up are borrowed (zero-copy,
// like a local delivery), smaller ones copied into the send buffer.
//
// Links run in confirm mode and bridge confirms: every forward records
// its origin channel and publish seq under the link's sequence number,
// and the link relays the client's one confirmation per publish to that
// origin. A link failure gives everything outstanding one bounded
// immediate replay on a freshly dialed link (each forward retains its
// message for exactly this); what cannot be replayed — the redial failed,
// or the forward already rode a retry — is nacked, so producers retry
// through their normal confirm machinery. The link is fail-fast, not a
// reconnecting client: redialing a dead master would hold back the nack
// that reroutes producers, and its replay would resend a forward twice.
//
// The replication layer rides the same links: mirror ships are forwards
// whose exchange names a reserved "!mirror.*" operation (see
// replication.go), so forward carries an explicit wire exchange/key pair
// distinct from the message's own envelope.

// fedRPCTimeout bounds link setup and remote queue declares.
const fedRPCTimeout = 10 * time.Second

// fedHub owns one node's federation links.
type fedHub struct {
	node int
	dir  *Directory
	dial transport.DialFunc // nil: the client's default TCP dial

	mu    sync.Mutex
	links map[string]*fedLink // key: addr + "\x00" + vhost
}

func newFedHub(node int, dir *Directory, dial transport.DialFunc) *fedHub {
	return &fedHub{node: node, dir: dir, dial: dial, links: make(map[string]*fedLink)}
}

// link returns a live link to addr for vhost, dialing one if needed.
// The dial happens under the hub lock: link setup is rare (once per
// (sibling, vhost) per topology change), and serializing it keeps two
// racing forwards from opening duplicate links.
func (h *fedHub) link(addr, vhost string) (*fedLink, error) {
	key := addr + "\x00" + vhost
	h.mu.Lock()
	defer h.mu.Unlock()
	if l, ok := h.links[key]; ok && !l.isDead() {
		return l, nil
	}
	l, err := newFedLink(addr, vhost, h)
	if err != nil {
		return nil, fmt.Errorf("cluster: federation link %s: %w", addr, err)
	}
	h.links[key] = l
	fedLinks.Add(1)
	return l, nil
}

// closeAll tears down every link (node shutdown), and closeTo the links to
// addr, whose node was killed. Neither replays: everything outstanding is
// nacked, not handed to whatever listens at the address next.
func (h *fedHub) closeAll() { h.closeTo("") }

func (h *fedHub) closeTo(addr string) {
	h.mu.Lock()
	var links []*fedLink
	for k, l := range h.links {
		if addr == "" || l.addr == addr {
			links = append(links, l)
			delete(h.links, k)
		}
	}
	h.mu.Unlock()
	for _, l := range links {
		l.failWith(fmt.Errorf("cluster: federation link closed"), false)
	}
}

// retryOutstanding gives a failed link's outstanding forwards one bounded
// immediate replay on a freshly dialed link, in original seq order so the
// master's confirm frontier stays contiguous. Entries that already rode a
// retry, or that cannot be re-sent because the redial (or re-forward)
// failed, are nacked.
func (h *fedHub) retryOutstanding(addr, vhost string, seqs []uint64, pend map[uint64]fedPending) {
	nl, err := h.link(addr, vhost)
	for _, s := range seqs {
		p := pend[s]
		if err != nil || p.retried {
			resolvePending(p, false)
			continue
		}
		p.retried = true
		// Counted before the forward: the replay's confirm can resolve, and
		// be observed, before forwardPending returns.
		fedRetries.Inc()
		if ferr := nl.forwardPending(p); ferr != nil {
			// The fresh link died too; nack this and everything after.
			resolvePending(p, false)
			err = ferr
		}
	}
}

// fedPending is one outstanding confirm-bridged forward: the origin
// channel and the producer-facing seq to relay the master's verdict to,
// plus a retained message reference and its wire envelope so a link
// failure can replay the forward once before giving up. A zero target
// marks a fire-and-forget forward that still occupies a link seq (the
// remote acks every publish on the confirm channel).
type fedPending struct {
	target   broker.ConfirmTarget
	seq      uint64
	msg      *broker.Message
	exchange string
	key      string
	retried  bool
}

// resolvePending relays a verdict to the pending forward's origin (if
// confirm-bridged) and drops its retained message reference.
func resolvePending(p fedPending, ok bool) {
	if p.target != nil {
		p.target.ClusterConfirm(p.seq, ok)
	}
	if p.msg != nil {
		p.msg.Release()
	}
}

// fedLink is one client connection to a sibling node with one channel in
// confirm mode. sendMu pairs a forward's sequence number with its publish;
// mu guards the rest and is never held across a write, so a forward
// blocked on the socket cannot stall the confirm relay (and with it the
// client's reader, and the master writing acks behind it).
type fedLink struct {
	addr  string
	vhost string
	hub   *fedHub // nil for hub-less links (tests); disables the failure replay
	conn  *amqp.Connection
	ch    *amqp.Channel

	sendMu  sync.Mutex
	mu      sync.Mutex
	pending map[uint64]fedPending // client publish seq -> origin
	err     error                 // non-nil once the link is dead

	// Per-sibling tagged series (cluster.federation_link_*{link=addr}),
	// captured once at link setup alongside the untagged cluster totals.
	msgsCtx  *telemetry.Counter
	bytesCtx *telemetry.Counter
}

// newFedLink dials addr through the hub's dialer, opens a channel in
// confirm mode and starts the confirm relay. Without heartbeats, a killed
// sibling fails the link by read and write errors. addr tags the link's
// per-sibling telemetry series, interned once here.
func newFedLink(addr, vhost string, hub *fedHub) (*fedLink, error) {
	var dial transport.DialFunc
	if hub != nil {
		dial = hub.dial
	}
	conn, err := amqp.DialConfig("amqp://"+addr, amqp.Config{
		Dial:       dial,
		VHost:      vhost,
		Properties: amqp.Table{"product": "ds2hpc-federation"},
	})
	if err != nil {
		return nil, err
	}
	stop := time.AfterFunc(fedRPCTimeout, func() { conn.Close() })
	ch, err := conn.Channel()
	if err == nil {
		err = ch.Confirm(false)
	}
	stop.Stop()
	if err != nil {
		conn.Close()
		return nil, err
	}
	ctx := telemetry.Intern("link=" + addr)
	l := &fedLink{
		addr:     addr,
		vhost:    vhost,
		hub:      hub,
		conn:     conn,
		ch:       ch,
		pending:  make(map[uint64]fedPending),
		msgsCtx:  telemetry.Default.CounterCtx("cluster.federation_link_msgs", ctx),
		bytesCtx: telemetry.Default.CounterCtx("cluster.federation_link_bytes", ctx),
	}
	// Room for the burst one multiple-ack resolves.
	go l.relay(ch.NotifyPublish(make(chan amqp.Confirmation, 256)))
	return l, nil
}

// relay hands each confirmation to its forward's origin until the channel
// ends, and then fails the link.
func (l *fedLink) relay(confirms <-chan amqp.Confirmation) {
	for c := range confirms {
		l.mu.Lock()
		p, ok := l.pending[c.DeliveryTag]
		delete(l.pending, c.DeliveryTag)
		l.mu.Unlock()
		if ok {
			resolvePending(p, c.Ack)
		}
	}
	l.fail(errors.New("cluster: federation link closed"))
}

func (l *fedLink) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// fail marks the link dead. With a hub attached, the outstanding forwards
// get one bounded immediate replay on a freshly dialed link before being
// nacked (retryOutstanding); hub-less links nack everything right away.
func (l *fedLink) fail(err error) { l.failWith(err, true) }

func (l *fedLink) failWith(err error, retry bool) {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	l.err = err
	pend := l.pending
	l.pending = make(map[uint64]fedPending)
	l.mu.Unlock()
	l.conn.Close()
	fedLinks.Add(-1)
	if len(pend) == 0 {
		return
	}
	if retry && l.hub != nil {
		seqs := make([]uint64, 0, len(pend))
		for s := range pend {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		// Replay off the failing goroutine: the redial and re-forwards
		// must not block whatever failed the link.
		go l.hub.retryOutstanding(l.addr, l.vhost, seqs, pend)
		return
	}
	for _, p := range pend {
		resolvePending(p, false)
	}
}

// forward ships one publish across the link under the wire envelope
// (exchange, key) — "" + queue for an ordinary federated publish, a
// "!mirror.*" pair for replication ships. The message is retained in the
// pending entry until its confirm resolves, so a link failure can replay
// it. The steady-state path allocates nothing: the client's pooled
// writers, map slot reuse, refcount adds.
func (l *fedLink) forward(exchange, key string, m *broker.Message, target broker.ConfirmTarget, origSeq uint64) error {
	m.Retain()
	err := l.forwardPending(fedPending{target: target, seq: origSeq, msg: m, exchange: exchange, key: key})
	if err != nil {
		m.Release()
	}
	return err
}

// forwardPending ships one pending entry (fresh or replayed); on success
// the entry's message reference is owned by the pending table.
func (l *fedLink) forwardPending(p fedPending) error {
	m := p.msg
	// Once pending, the entry may be resolved and its reference dropped at
	// any time, so the publish reads the body under a reference of its own.
	m.Retain()
	defer m.Release()
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	l.mu.Lock()
	err := l.err
	if err == nil {
		l.pending[l.ch.GetNextPublishSeqNo()] = p
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	// Counted before the publish: its confirm, and the delivery on the
	// remote master, may otherwise be seen before the count.
	size := int64(len(m.Body))
	fedMsgs.Inc()
	fedBytes.Add(size)
	l.msgsCtx.Inc()
	l.bytesCtx.Add(size)
	if err := l.ch.Publish(p.exchange, p.key, false, false, publishing(m)); err != nil {
		// Failed under sendMu, so no later forward reuses the entry's
		// sequence number: the failing link replays it once or nacks it.
		l.fail(err)
	}
	return nil
}

// publishing is m as a client publish: every property, and the body.
func publishing(m *broker.Message) amqp.Publishing {
	p := &m.Props
	return amqp.Publishing{
		ContentType:     p.ContentType,
		ContentEncoding: p.ContentEncoding,
		Headers:         p.Headers,
		DeliveryMode:    p.DeliveryMode,
		Priority:        p.Priority,
		CorrelationID:   p.CorrelationID,
		ReplyTo:         p.ReplyTo,
		Expiration:      p.Expiration,
		MessageID:       p.MessageID,
		Timestamp:       p.Timestamp,
		Type:            p.Type,
		UserID:          p.UserID,
		AppID:           p.AppID,
		Body:            m.Body,
	}
}

// declare runs a synchronous queue.declare on the link — the
// ensure-on-master half of a location-transparent declare. A master that
// does not answer within fedRPCTimeout fails the link, which ends the
// call.
func (l *fedLink) declare(queue string, durable bool) error {
	stop := time.AfterFunc(fedRPCTimeout, func() {
		l.fail(fmt.Errorf("cluster: remote declare %q: timeout", queue))
	})
	defer stop.Stop()
	if _, err := l.ch.QueueDeclare(queue, durable, false, false, false, nil); err != nil {
		return fmt.Errorf("cluster: remote declare %q: %w", queue, err)
	}
	return nil
}
