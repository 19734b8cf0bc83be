package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceEvery is the span sampling stride: one message in traceEvery gets
// the full set of spans.
const traceEvery = 16

// Span names, one per layer boundary the load generator can see from
// outside: they are recorded around calls into the client library, and
// between events on the two sides of the stack.
const (
	spanMessage    = "message"      // root: wanted to publish → ack call returned
	spanCreditWait = "credit_wait"  // producer blocked on the window
	spanPublish    = "publish_call" // Channel.Publish
	spanConfirm    = "confirm_wait" // publish returned → confirm received
	spanTransit    = "transit"      // publish returned → consumer received
	spanConsume    = "consume_proc" // received → verified and credit/reply sent
	spanAck        = "ack_call"     // the batched Ack call covering the message

	// spanUnattributed is not a span but the root span's self time, under
	// which spanMedians reports it.
	spanUnattributed = "unattributed"
)

// span is one recorded interval. Spans of one message share Parent, the
// message's sequence number; the root span carries it too.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent"`
	// SelfNs is set on root spans: the part of the interval no child covers.
	SelfNs int64 `json:"self_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - covered
}

// sample holds the raw timestamps of one sampled message. The producer
// goroutine writes the first group of fields and the consumer goroutine
// the second; they are read only after the phase has ended.
type sample struct {
	seq                                   uint64
	creditWait, pubStart, pubEnd, confirm int64

	recv, procEnd, ackStart, ackEnd int64
}

// tracer records one phase's samples. It is reused across phases.
type tracer struct {
	samples []sample
	n       int   // messages in the phase
	idle    int64 // consumer time blocked on its delivery channel
	ackFrom int   // first sample slot no ack has covered yet
	elapsed time.Duration
}

func (t *tracer) begin(first uint64, n int) {
	slots := (n + traceEvery - 1) / traceEvery
	if cap(t.samples) < slots {
		t.samples = make([]sample, slots)
	}
	t.samples = t.samples[:slots]
	for i := range t.samples {
		t.samples[i] = sample{}
	}
	t.n, t.idle, t.ackFrom = n, 0, 0
}

func (t *tracer) end(elapsed time.Duration) { t.elapsed = elapsed }

func (t *tracer) slot(idx int) *sample {
	if idx < 0 || idx >= t.n || idx%traceEvery != 0 {
		return nil
	}
	return &t.samples[idx/traceEvery]
}

func (t *tracer) published(idx int, seq uint64, waited, start, end int64) {
	if s := t.slot(idx); s != nil {
		s.seq, s.creditWait, s.pubStart, s.pubEnd = seq, waited, start, end
	}
}

func (t *tracer) confirmed(idx int, at int64) {
	if s := t.slot(idx); s != nil {
		s.confirm = at
	}
}

func (t *tracer) received(idx int, idleFrom, recv, procEnd int64) {
	t.idle += recv - idleFrom
	if s := t.slot(idx); s != nil {
		s.recv, s.procEnd = recv, procEnd
	}
}

// acked attributes one batched Ack call to every sampled message it
// covers: all of them up to and including message idx.
func (t *tracer) acked(idx int, start, end int64) {
	if idx < 0 || idx >= t.n {
		return
	}
	for ; t.ackFrom <= idx/traceEvery && t.ackFrom < len(t.samples); t.ackFrom++ {
		t.samples[t.ackFrom].ackStart, t.samples[t.ackFrom].ackEnd = start, end
	}
}

// spans turns the phase's samples into spans, root first per message.
// Samples that miss a timestamp (a message that failed verification, or
// whose events straddled a watchdog) are skipped.
func (t *tracer) spans() []span {
	out := make([]span, 0, len(t.samples)*7)
	for _, s := range t.samples {
		if s.pubEnd == 0 || s.recv == 0 || s.ackEnd == 0 || s.confirm == 0 {
			continue
		}
		// The consumer can see the message before the producer's Publish
		// call has returned; transit is then zero, not negative.
		recv := s.recv
		if recv < s.pubEnd {
			recv = s.pubEnd
		}
		confirm := s.confirm
		if confirm < s.pubEnd {
			confirm = s.pubEnd
		}
		children := []span{
			{Name: spanCreditWait, Start: s.pubStart - s.creditWait, End: s.pubStart, Parent: s.seq},
			{Name: spanPublish, Start: s.pubStart, End: s.pubEnd, Parent: s.seq},
			{Name: spanConfirm, Start: s.pubEnd, End: confirm, Parent: s.seq},
			{Name: spanTransit, Start: s.pubEnd, End: recv, Parent: s.seq},
			{Name: spanConsume, Start: s.recv, End: s.procEnd, Parent: s.seq},
			{Name: spanAck, Start: s.ackStart, End: s.ackEnd, Parent: s.seq},
		}
		root := span{Name: spanMessage, Start: s.pubStart - s.creditWait, End: s.ackEnd, Parent: s.seq}
		root.SelfNs = selfTime(root, children)
		out = append(out, root)
		out = append(out, children...)
	}
	return out
}

// spanMedians is the median duration per span name in microseconds, plus
// the root spans' median self time under spanUnattributed.
func spanMedians(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.dur())/1e3)
		if s.Name == spanMessage {
			by[spanUnattributed] = append(by[spanUnattributed], float64(s.SelfNs)/1e3)
		}
	}
	out := make(map[string]float64, len(by))
	for name, v := range by {
		out[name] = quantile(v, 0.5)
	}
	return out
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Every    int               `json:"sampled_one_in"`
	Spans    map[string][]span `json:"spans_by_arch"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
