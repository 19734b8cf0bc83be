package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// HealthState is one level of a health rule's traffic light.
type HealthState int8

// Health levels, ordered by severity.
const (
	HealthOK HealthState = iota
	HealthWarn
	HealthCritical
)

func (s HealthState) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthWarn:
		return "warn"
	case HealthCritical:
		return "critical"
	}
	return fmt.Sprintf("HealthState(%d)", int8(s))
}

// Health-rule kinds. A rule watches one aggregator tick source and
// maps its value (or per-tick change) to a severity.
const (
	// RuleAbove alerts when the value rises to the thresholds — queue
	// depth watermarks, error rates, reconnect storms (with Delta).
	RuleAbove = "above"
	// RuleBelow alerts when the value falls to the thresholds — a
	// consume rate stalling at zero while the run is live.
	RuleBelow = "below"
	// RuleFlap counts downward movements of the value (a federation
	// link dropping, a gauge sawtoothing) and alerts on the count;
	// Clear consecutive non-decreasing ticks reset it.
	RuleFlap = "flap"
)

// HealthRule is one declarative rollup check, evaluated against every
// aggregator tick. The zero Kind is RuleAbove. Critical is enabled
// only when it is strictly tighter than Warn (greater for above/flap,
// lower for below); equal thresholds make the rule warn-only.
type HealthRule struct {
	// Name labels the rule in events ("queue-depth-watermark").
	Name string `json:"name"`
	// Source is the Tick.Values key the rule watches. Ticks missing
	// the source leave the rule's state untouched.
	Source string `json:"source"`
	// Kind is above (default), below, or flap.
	Kind string `json:"kind,omitempty"`
	// Delta evaluates the per-tick change of the source instead of its
	// level — this is how a cumulative reconnect count becomes a storm
	// detector. The first observed tick only seeds the baseline.
	Delta bool `json:"delta,omitempty"`
	// Warn and Critical are the severity thresholds (flap rules count
	// downward movements against them).
	Warn     float64 `json:"warn,omitempty"`
	Critical float64 `json:"critical,omitempty"`
	// For is how many consecutive breaching ticks escalate the state
	// (default 1: immediately). Stall rules use it so one idle tick at
	// a run boundary is not an alert.
	For int `json:"for_ticks,omitempty"`
	// Clear is how many consecutive recovered ticks de-escalate
	// (default 1). Flap rules also use it as the stability window that
	// resets the flap count.
	Clear int `json:"clear_ticks,omitempty"`
}

func (r HealthRule) forTicks() int {
	if r.For > 0 {
		return r.For
	}
	return 1
}

func (r HealthRule) clearTicks() int {
	if r.Clear > 0 {
		return r.Clear
	}
	return 1
}

// breach reports whether v crosses the threshold in the rule's
// direction.
func (r HealthRule) breach(v, threshold float64) bool {
	if r.Kind == RuleBelow {
		return v <= threshold
	}
	return v >= threshold
}

// criticalEnabled reports whether the rule has a distinct critical
// tier: a critical threshold strictly tighter than warn.
func (r HealthRule) criticalEnabled() bool {
	if r.Kind == RuleBelow {
		return r.Critical < r.Warn
	}
	return r.Critical > r.Warn
}

// severity maps a value (level, delta, or flap count) to the rule's
// target state.
func (r HealthRule) severity(v float64) HealthState {
	if r.criticalEnabled() && r.breach(v, r.Critical) {
		return HealthCritical
	}
	if r.breach(v, r.Warn) {
		return HealthWarn
	}
	return HealthOK
}

// HealthEvent is one state transition of one rule — the typed entries
// of the health log scenario Reports carry and tests assert on.
type HealthEvent struct {
	T        time.Time   `json:"t"`
	Rule     string      `json:"rule"`
	Source   string      `json:"source"`
	From, To HealthState `json:"-"`
	// FromState/ToState are the JSON renderings (HealthState marshals
	// as its name via these fields so forwarded payloads stay
	// readable).
	FromState string `json:"from"`
	ToState   string `json:"to"`
	// Value is what the rule evaluated: the source level, its per-tick
	// delta, or the flap count.
	Value float64 `json:"value"`
}

// String renders a transition the way `streamsim scenario -watch`
// prints it.
func (e HealthEvent) String() string {
	return fmt.Sprintf("%s %s→%s (%s=%.1f)", e.Rule, e.From, e.To, e.Source, e.Value)
}

// ruleState is one rule plus its evaluation state.
type ruleState struct {
	rule HealthRule
	cur  HealthState

	// pending/streak implement the For/Clear hysteresis: a transition
	// fires only after `streak` consecutive ticks agree on `pending`.
	pending HealthState
	streak  int

	// last/seen baseline Delta and flap comparisons.
	last float64
	seen bool

	// flap bookkeeping.
	flapCount int
	stable    int
}

// HealthMonitor evaluates a rule set against aggregator ticks and
// keeps the transition log. It is safe for concurrent use; Eval is
// expected to run on the aggregator's tick goroutine.
type HealthMonitor struct {
	mu     sync.Mutex
	rules  []*ruleState
	events []HealthEvent
}

// NewHealthMonitor builds a monitor over the rule set. Rules with an
// empty Kind are RuleAbove.
func NewHealthMonitor(rules []HealthRule) *HealthMonitor {
	m := &HealthMonitor{}
	for _, r := range rules {
		if r.Kind == "" {
			r.Kind = RuleAbove
		}
		m.rules = append(m.rules, &ruleState{rule: r})
	}
	return m
}

// Eval runs every rule against one tick and returns the transitions it
// produced (nil for a quiet tick). Transitions are appended to the
// monitor's log.
func (m *HealthMonitor) Eval(t Tick) []HealthEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	var fired []HealthEvent
	for _, s := range m.rules {
		v, ok := t.Values[s.rule.Source]
		if !ok {
			continue
		}
		ev, ok := s.eval(t.T, v)
		if ok {
			fired = append(fired, ev)
			m.events = append(m.events, ev)
		}
	}
	return fired
}

// eval advances one rule by one sample and reports a transition, if
// any.
func (s *ruleState) eval(now time.Time, v float64) (HealthEvent, bool) {
	r := s.rule
	switch {
	case r.Kind == RuleFlap:
		if !s.seen {
			s.seen, s.last = true, v
			return HealthEvent{}, false
		}
		if v < s.last {
			s.flapCount++
			s.stable = 0
		} else {
			s.stable++
			if s.stable >= r.clearTicks() {
				s.flapCount = 0
			}
		}
		s.last = v
		v = float64(s.flapCount)
	case r.Delta:
		if !s.seen {
			s.seen, s.last = true, v
			return HealthEvent{}, false
		}
		v, s.last = v-s.last, v
	}

	target := r.severity(v)
	if target == s.cur {
		s.pending, s.streak = s.cur, 0
		return HealthEvent{}, false
	}
	if target != s.pending {
		s.pending, s.streak = target, 0
	}
	s.streak++
	need := r.forTicks()
	if target < s.cur {
		need = r.clearTicks()
	}
	if s.streak < need {
		return HealthEvent{}, false
	}
	ev := HealthEvent{
		T: now, Rule: r.Name, Source: r.Source,
		From: s.cur, To: target,
		FromState: s.cur.String(), ToState: target.String(),
		Value: v,
	}
	s.cur, s.pending, s.streak = target, target, 0
	return ev, true
}

// Events returns a copy of the transition log so far.
func (m *HealthMonitor) Events() []HealthEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]HealthEvent(nil), m.events...)
}
