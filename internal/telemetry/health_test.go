package telemetry

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// transition is a compact expected-event form for the table tests.
type transition struct {
	tick int // 0-based index of the tick that fires it
	rule string
	from HealthState
	to   HealthState
}

// feed drives one rule through a value sequence (one source) and
// returns the transitions in (tick, rule, from, to) form.
func feed(t *testing.T, rule HealthRule, values []float64) []transition {
	t.Helper()
	m := NewHealthMonitor([]HealthRule{rule})
	var got []transition
	base := time.Unix(1000, 0)
	for i, v := range values {
		evs := m.Eval(Tick{
			T:      base.Add(time.Duration(i) * time.Second),
			Values: map[string]float64{rule.Source: v},
		})
		for _, ev := range evs {
			got = append(got, transition{tick: i, rule: ev.Rule, from: ev.From, to: ev.To})
		}
	}
	return got
}

func TestHealthRules(t *testing.T) {
	cases := []struct {
		name   string
		rule   HealthRule
		values []float64
		want   []transition
	}{
		{
			name: "above warn then critical then recover",
			rule: HealthRule{Name: "depth", Source: "queue_depth", Kind: RuleAbove,
				Warn: 100, Critical: 1000},
			values: []float64{10, 150, 1500, 1500, 50},
			want: []transition{
				{1, "depth", HealthOK, HealthWarn},
				{2, "depth", HealthWarn, HealthCritical},
				{4, "depth", HealthCritical, HealthOK},
			},
		},
		{
			name: "for_ticks suppresses a one-tick spike",
			rule: HealthRule{Name: "depth", Source: "queue_depth", Kind: RuleAbove,
				Warn: 100, For: 2},
			values: []float64{10, 150, 10, 150, 150, 10},
			want: []transition{
				{4, "depth", HealthOK, HealthWarn},
				{5, "depth", HealthWarn, HealthOK},
			},
		},
		{
			name: "clear_ticks delays recovery",
			rule: HealthRule{Name: "depth", Source: "queue_depth", Kind: RuleAbove,
				Warn: 100, Clear: 2},
			values: []float64{150, 10, 150, 10, 10},
			want: []transition{
				{0, "depth", HealthOK, HealthWarn},
				{4, "depth", HealthWarn, HealthOK},
			},
		},
		{
			name: "delta turns a cumulative counter into a storm detector",
			rule: HealthRule{Name: "reconnect-storm", Source: "reconnects", Kind: RuleAbove,
				Delta: true, Warn: 3, Critical: 24},
			// Levels: first tick seeds the baseline; +1 is quiet, +5
			// breaches warn, +0 recovers, +30 jumps straight to critical.
			values: []float64{2, 3, 8, 8, 38, 38},
			want: []transition{
				{2, "reconnect-storm", HealthOK, HealthWarn},
				{3, "reconnect-storm", HealthWarn, HealthOK},
				{4, "reconnect-storm", HealthOK, HealthCritical},
				{5, "reconnect-storm", HealthCritical, HealthOK},
			},
		},
		{
			name: "below stall rule is warn-only with equal thresholds",
			rule: HealthRule{Name: "consume-stall", Source: "consumed", Kind: RuleBelow,
				Warn: 0, Critical: 0, For: 3},
			values: []float64{120, 0, 0, 0, 0, 90},
			want: []transition{
				{3, "consume-stall", HealthOK, HealthWarn},
				{5, "consume-stall", HealthWarn, HealthOK},
			},
		},
		{
			name: "flap counts link drops and clears after stability",
			rule: HealthRule{Name: "link-flap", Source: "federation_links", Kind: RuleFlap,
				Warn: 2, Clear: 2},
			// 2→1 (flap 1), 1→2 rise, 2→1 (flap 2: warn). Clear serves
			// double duty: two non-decreasing ticks reset the count, then
			// two OK evaluations de-escalate.
			values: []float64{2, 1, 2, 1, 1, 2, 2},
			want: []transition{
				{3, "link-flap", HealthOK, HealthWarn},
				{6, "link-flap", HealthWarn, HealthOK},
			},
		},
		{
			name: "missing critical never escalates past warn",
			rule: HealthRule{Name: "depth", Source: "queue_depth", Kind: RuleAbove,
				Warn: 100},
			values: []float64{1e12, 1e12},
			want: []transition{
				{0, "depth", HealthOK, HealthWarn},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := feed(t, tc.rule, tc.values)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d transitions %+v, want %d %+v", len(got), got, len(tc.want), tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("transition %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestHealthMonitorPlumbing(t *testing.T) {
	m := NewHealthMonitor([]HealthRule{
		{Name: "depth", Source: "queue_depth", Warn: 100}, // empty Kind → above
		{Name: "other", Source: "absent", Warn: 1},
	})
	// A tick missing a rule's source leaves that rule untouched.
	fired := m.Eval(Tick{T: time.Unix(1, 0), Values: map[string]float64{"queue_depth": 500}})
	if len(fired) != 1 || fired[0].Rule != "depth" || fired[0].To != HealthWarn {
		t.Fatalf("fired = %+v", fired)
	}
	// The untouched rule is still ok: a quiet sample is no transition,
	// while depth, now warn, clears on one.
	fired2 := m.Eval(Tick{T: time.Unix(2, 0), Values: map[string]float64{"queue_depth": 0, "absent": 0}})
	if len(fired2) != 1 || fired2[0].Rule != "depth" || fired2[0].From != HealthWarn || fired2[0].To != HealthOK {
		t.Fatalf("second tick fired %+v", fired2)
	}

	evs := m.Events()
	if len(evs) != 2 || evs[0].FromState != "ok" || evs[0].ToState != "warn" {
		t.Fatalf("Events() = %+v", evs)
	}
	// The log is a copy.
	evs[0].Rule = "tampered"
	if m.Events()[0].Rule != "depth" {
		t.Fatal("Events() aliases the internal log")
	}

	if got, want := fired[0].String(), "depth ok→warn (queue_depth=500.0)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestAggregatorUnobserve(t *testing.T) {
	a := NewAggregator(time.Second)
	var live, doomed int64 = 10, 20
	a.ObserveGauge("live", func() int64 { return live })
	a.ObserveGauge("doomed", func() int64 { return doomed })

	a.Tick(time.Unix(1, 0))
	a.Unobserve("doomed")
	a.Unobserve("never-registered") // no-op

	// After Unobserve the source is gone from ticks and its series is
	// dropped; the surviving source is unaffected.
	var last Tick
	a.OnTick(func(t Tick) { last = t })
	a.Tick(time.Unix(2, 0))
	if _, ok := last.Values["doomed"]; ok {
		t.Fatal("unobserved source still ticked")
	}
	if last.Values["live"] != 10 {
		t.Fatalf("surviving source = %v", last.Values["live"])
	}
	if pts := a.Series("doomed"); pts != nil {
		t.Fatalf("unobserved series survives: %v", pts)
	}
	if pts := a.Series("live"); len(pts) != 2 {
		t.Fatalf("live series has %d points, want 2", len(pts))
	}
}

func TestServerShutdown(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Close after Shutdown is the documented fallback path; the only
	// acceptable error is the server already being closed.
	if err := s.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}
