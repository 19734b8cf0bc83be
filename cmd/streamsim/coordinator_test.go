package main

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// anyQueue gives every participant the same one-message assignment.
func anyQueue(HelloMsg) AssignMsg {
	return AssignMsg{Queue: "q", Endpoint: "amqp://127.0.0.1:1", Messages: 1}
}

func TestCoordinatorProtocol(t *testing.T) {
	const participants = 4
	coord, err := NewCoordinator("", participants, func(h HelloMsg) AssignMsg {
		return AssignMsg{
			Queue:    fmt.Sprintf("q-%d", h.ID%2),
			Endpoint: "amqp://127.0.0.1:5672",
			Messages: 10,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	for i := 0; i < participants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			role := "producer"
			if i%2 == 1 {
				role = "consumer"
			}
			p, assign, err := Join(coord.Addr(), HelloMsg{Role: role, ID: i})
			if err != nil {
				t.Error(err)
				return
			}
			if assign.Queue == "" || assign.Messages != 10 {
				t.Errorf("assignment %+v", assign)
			}
			report := ReportMsg{Role: role, ID: i, Count: 10}
			if role == "consumer" {
				report.RTTNanos = []int64{1000000, 2000000}
			}
			if err := p.Report(report); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	res, err := coord.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 20 || res.Produced != 20 {
		t.Fatalf("aggregate %+v", res)
	}
	if res.RTTCount() != 4 {
		t.Fatalf("RTTs %d", res.RTTCount())
	}
}

func TestCoordinatorTimeout(t *testing.T) {
	coord, err := NewCoordinator("", 1, func(h HelloMsg) AssignMsg { return AssignMsg{} })
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Wait(50 * time.Millisecond); err == nil {
		t.Fatal("expected timeout")
	}
}

// TestCoordinatorHungParticipantDeadline covers the serve-side hardening:
// a participant that registers and then hangs must be disconnected by the
// per-participant read deadline instead of pinning its serve goroutine
// (and its connection) forever, and the timed-out Wait must still stop
// the metrics collector.
func TestCoordinatorHungParticipantDeadline(t *testing.T) {
	coord, err := NewCoordinator("", 1, anyQueue)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetReadTimeout(100 * time.Millisecond)

	p, _, err := Join(coord.Addr(), HelloMsg{Role: "producer", ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The participant "hangs": no report. The coordinator must close the
	// connection once the report deadline passes — observable here as a
	// read on the participant side finishing instead of blocking.
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := p.conn.Read(buf)
		readDone <- err
	}()

	res, err := coord.Wait(300 * time.Millisecond)
	if err == nil || res != nil {
		t.Fatalf("Wait = (%v, %v), want timeout", res, err)
	}
	select {
	case err := <-readDone:
		if err == nil {
			t.Fatal("participant read returned data, want connection close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung participant was never disconnected")
	}
	// The collector was stopped on the timeout path: a snapshot taken now
	// and one taken later must agree on the run duration.
	d1 := coord.col.Snapshot().Duration
	time.Sleep(20 * time.Millisecond)
	if d2 := coord.col.Snapshot().Duration; d2 != d1 {
		t.Fatalf("collector still running after timeout: %v != %v", d2, d1)
	}
}

// TestCoordinatorHugeErrorCount sends a report claiming 2⁴⁰ errors: the
// count is added in one step, so the report is aggregated at once instead
// of holding the coordinator's lock for one call per claimed error.
func TestCoordinatorHugeErrorCount(t *testing.T) {
	coord, err := NewCoordinator("", 1, anyQueue)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	p, _, err := Join(coord.Addr(), HelloMsg{Role: "consumer", ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Report(ReportMsg{Role: "consumer", Count: 3, Errors: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 3 || res.Errors != 1<<40 {
		t.Fatalf("aggregate %+v", res)
	}
}

// TestCoordinatorRejectsNegativeCount sends a report with a negative count
// before a valid one: the coordinator closes the bad report's connection
// without counting it, so the aggregate is the valid participant's alone.
func TestCoordinatorRejectsNegativeCount(t *testing.T) {
	coord, err := NewCoordinator("", 1, anyQueue)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	bad, _, err := Join(coord.Addr(), HelloMsg{Role: "consumer", ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.conn.Close()
	if err := bad.enc.Encode(ReportMsg{Role: "consumer", ID: 0, Count: -5}); err != nil {
		t.Fatal(err)
	}
	// The coordinator closes every connection once it has handled the
	// report, so EOF here means the bad report was processed.
	bad.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.br.ReadByte(); err == nil {
		t.Fatal("coordinator replied to a report, want connection close")
	}

	good, _, err := Join(coord.Addr(), HelloMsg{Role: "consumer", ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Report(ReportMsg{Role: "consumer", ID: 1, Count: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consumed != 3 {
		t.Fatalf("aggregate consumed = %d, want 3 (the negative report must not count)", res.Consumed)
	}
}
