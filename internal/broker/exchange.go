package broker

import (
	"slices"
	"strings"
	"sync"

	"ds2hpc/internal/telemetry"
)

// Exchange kinds.
const (
	KindDirect = "direct"
	KindFanout = "fanout"
	KindTopic  = "topic"
)

// binding associates a queue with a routing pattern on an exchange.
type binding struct {
	queue *Queue
	key   string
}

// bindingShards spreads an exchange's routing table across independently
// locked shards (keyed by routing-key hash) so concurrent publishers on
// different keys do not contend on a single exchange lock. Must be a power
// of two.
const bindingShards = 8

// bindingShard is one lock-domain of an exchange's routing table. For
// direct exchanges it additionally maintains an exact-match index so the
// hot routing path is a single map lookup instead of a binding scan.
type bindingShard struct {
	mu       sync.RWMutex
	bindings []binding
	direct   map[string][]*Queue
}

// shardContention counts lock acquisitions on routing/registry shards that
// found the shard already held — the residual contention the sharding did
// not eliminate.
var shardContention = telemetry.Default.Counter("broker.shard_contention")

func lockShard(mu *sync.RWMutex) {
	if !mu.TryLock() {
		shardContention.Inc()
		mu.Lock()
	}
}

func rlockShard(mu *sync.RWMutex) {
	if !mu.TryRLock() {
		shardContention.Inc()
		mu.RLock()
	}
}

// fnvHash is FNV-1a, used to place names onto shards.
func fnvHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Exchange routes published messages to bound queues.
type Exchange struct {
	Name string
	Kind string

	shards [bindingShards]bindingShard
}

// NewExchange creates an exchange of the given kind.
func NewExchange(name, kind string) *Exchange {
	return &Exchange{Name: name, Kind: kind}
}

func (e *Exchange) shardFor(key string) *bindingShard {
	return &e.shards[fnvHash(key)&(bindingShards-1)]
}

// Bind adds a queue binding. Duplicate (queue, key) pairs are idempotent.
func (e *Exchange) Bind(q *Queue, key string) {
	s := e.shardFor(key)
	lockShard(&s.mu)
	defer s.mu.Unlock()
	for _, b := range s.bindings {
		if b.queue == q && b.key == key {
			return
		}
	}
	s.bindings = append(s.bindings, binding{queue: q, key: key})
	if e.Kind == KindDirect {
		if s.direct == nil {
			s.direct = map[string][]*Queue{}
		}
		s.direct[key] = append(s.direct[key], q)
	}
}

// Unbind removes a queue binding.
func (e *Exchange) Unbind(q *Queue, key string) {
	s := e.shardFor(key)
	lockShard(&s.mu)
	defer s.mu.Unlock()
	s.bindings = slices.DeleteFunc(s.bindings, func(b binding) bool { return b.queue == q && b.key == key })
	s.dropDirect(q, key)
}

// UnbindQueue removes every binding that targets q (used on queue delete).
func (e *Exchange) UnbindQueue(q *Queue) {
	for i := range e.shards {
		s := &e.shards[i]
		lockShard(&s.mu)
		s.bindings = slices.DeleteFunc(s.bindings, func(b binding) bool { return b.queue == q })
		for key := range s.direct {
			s.dropDirect(q, key)
		}
		s.mu.Unlock()
	}
}

// dropDirect removes q from the direct index entry for key (caller holds
// the shard lock). The entry is rebuilt without q; empty entries are
// deleted so the index does not accumulate dead keys.
func (s *bindingShard) dropDirect(q *Queue, key string) {
	qs, ok := s.direct[key]
	if !ok {
		return
	}
	out := slices.DeleteFunc(qs, func(x *Queue) bool { return x == q })
	if len(out) == 0 {
		delete(s.direct, key)
	} else {
		s.direct[key] = out
	}
}

// BindingCount reports the number of bindings (for IfUnused checks).
func (e *Exchange) BindingCount() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		rlockShard(&s.mu)
		n += len(s.bindings)
		s.mu.RUnlock()
	}
	return n
}

// routeAppend appends the queues a message with the given routing key
// should be delivered to onto dst and returns it. Duplicates are removed
// so a queue bound twice receives one copy, matching AMQP semantics. The
// hot publish path passes pooled scratch so steady-state routing is
// allocation-free. Direct exchanges resolve with one sharded index lookup;
// fanout and topic exchanges scan every shard's bindings.
func (e *Exchange) routeAppend(routingKey string, dst []*Queue) []*Queue {
	if e.Kind == KindDirect {
		s := e.shardFor(routingKey)
		rlockShard(&s.mu)
		// The per-key index holds unique queues (Bind is idempotent per
		// key), so no dedup pass is needed.
		dst = append(dst, s.direct[routingKey]...)
		s.mu.RUnlock()
		return dst
	}
	start := len(dst)
	for i := range e.shards {
		s := &e.shards[i]
		rlockShard(&s.mu)
		for _, b := range s.bindings {
			match := e.Kind == KindFanout || topicMatch(b.key, routingKey)
			if match && !slices.Contains(dst[start:], b.queue) {
				dst = append(dst, b.queue)
			}
		}
		s.mu.RUnlock()
	}
	return dst
}

// topicMatch implements AMQP topic matching: patterns are dot-separated
// words where "*" matches exactly one word and "#" matches zero or more.
func topicMatch(pattern, key string) bool {
	return topicMatchWords(splitTopic(pattern), splitTopic(key))
}

func splitTopic(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

func topicMatchWords(pat, key []string) bool {
	if len(pat) == 0 {
		return len(key) == 0
	}
	switch pat[0] {
	case "#":
		// "#" matches zero words, or one word and then whatever it
		// matches after it.
		return topicMatchWords(pat[1:], key) || len(key) > 0 && topicMatchWords(pat, key[1:])
	case "*":
		return len(key) > 0 && topicMatchWords(pat[1:], key[1:])
	default:
		return len(key) > 0 && pat[0] == key[0] && topicMatchWords(pat[1:], key[1:])
	}
}
