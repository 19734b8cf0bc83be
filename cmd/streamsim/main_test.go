package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ds2hpc/internal/core"
	"ds2hpc/internal/metrics"
	"ds2hpc/internal/scenario"
)

// TestScenarioSubcommand drives the declarative mode end to end: a tiny
// spec file must deploy, stream, and report cleanly.
func TestScenarioSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{
		"name": "cmd-smoke",
		"deployment": {"architecture": "DTS", "fabric_scale": 0.2,
			"disable_client_shaping": true, "fast_control_plane": true},
		"workload": {"name": "Dstream", "payload_bytes": 2048},
		"pattern": "work-sharing",
		"producers": 1, "consumers": 1,
		"messages_per_producer": 2,
		"timeout_ms": 30000
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenario([]string{path}); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioWatchAndTelemetry drives the live-telemetry path: -watch
// prints rollups while the run streams and -telemetry stands up the
// HTTP endpoint (on an ephemeral port) for its duration.
func TestScenarioWatchAndTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{
		"name": "watch-smoke",
		"deployment": {"architecture": "DTS", "fabric_scale": 0.2,
			"disable_client_shaping": true, "fast_control_plane": true},
		"workload": {"name": "Dstream", "payload_bytes": 2048},
		"pattern": "work-sharing",
		"producers": 1, "consumers": 1,
		"messages_per_producer": 2,
		"timeout_ms": 30000
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenario([]string{"-watch", "-telemetry", "127.0.0.1:0", path}); err != nil {
		t.Fatal(err)
	}
	// A busy port must surface as an error, not an exit.
	if err := runScenario([]string{"-telemetry", "256.0.0.1:99999", path}); err == nil {
		t.Fatal("bad telemetry address must be rejected")
	}
}

// TestScenarioRejectsBadInput checks the scenario mode surfaces errors
// instead of exiting: missing file, malformed JSON, typo'd keys, and an
// invalid spec.
func TestScenarioRejectsBadInput(t *testing.T) {
	if err := runScenario(nil); err == nil {
		t.Fatal("missing spec path must be rejected")
	}
	if err := runScenario([]string{"no-such-file.json"}); err == nil {
		t.Fatal("missing file must be rejected")
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := runScenario([]string{write("garbage.json", "{")}); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
	if err := runScenario([]string{write("typo.json", `{"patern": "work-sharing"}`)}); err == nil {
		t.Fatal("unknown spec keys must be rejected")
	}
	bad := `{"deployment": {"architecture": "DTS"}, "workload": {"name": "Dstream"},
		"pattern": "work-sharing", "messages_per_producer": 0}`
	if err := runScenario([]string{write("invalid.json", bad)}); err == nil {
		t.Fatal("invalid spec must be rejected by validation")
	}
}

// TestReportFaultLines: the injector's fault line prints for a spec with a
// transport fault and not for one whose only faults are node kills or
// broker restarts, which bypass the injector; their own lines still print.
func TestReportFaultLines(t *testing.T) {
	report := func(kind string, rep scenario.Report) string {
		rep.Spec.Faults, rep.Result = []scenario.Fault{{Kind: kind}}, &metrics.Result{}
		var out bytes.Buffer
		printReport(&out, &rep)
		return out.String()
	}
	for _, tc := range []struct {
		kind      string
		rep       scenario.Report
		want      string
		wantFault bool
	}{
		{scenario.FaultFlap, scenario.Report{}, "faults:         1 flaps, 2 resets, 3 refused dials", true},
		{scenario.FaultNodeKill, scenario.Report{NodeKills: 1}, "node kills:     1 queue-master(s) failed over", false},
		{scenario.FaultRollingNodeKill, scenario.Report{NodeKills: 2}, "node kills:     2 queue-master(s) failed over", false},
		{scenario.FaultBrokerRestart, scenario.Report{BrokerRestarts: 1}, "broker kills:   1 hard restart(s) survived", false},
	} {
		tc.rep.Faults.Flaps, tc.rep.Faults.Resets, tc.rep.Faults.Refused = 1, 2, 3
		out := report(tc.kind, tc.rep)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.kind, tc.want, out)
		}
		if got := strings.Contains(out, "faults:"); got != tc.wantFault {
			t.Errorf("%s: fault line printed = %v, want %v:\n%s", tc.kind, got, tc.wantFault, out)
		}
	}
}

// TestFiguresSubcommand runs one small paper figure end to end: the
// Figure 4a table prints one row per architecture with one throughput
// column, and an unknown figure id is an error (a non-zero exit).
func TestFiguresSubcommand(t *testing.T) {
	var out bytes.Buffer
	if err := runFigures([]string{"-fig", "4a", "-cons", "1", "-msgs", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	var lines []string // health transitions, if any, print above the table
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(l, "   health ") {
			lines = append(lines, l)
		}
	}
	if want := "== Figure 4a: Dstream throughput, work sharing (msgs/sec)"; lines[0] != want {
		t.Fatalf("title = %q, want %q", lines[0], want)
	}
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "architecture cons=1" {
		t.Fatalf("header = %q", lines[1])
	}
	rows := lines[2:]
	if len(rows) != len(core.AllArchitectures) {
		t.Fatalf("%d rows, want one per architecture:\n%s", len(rows), out.String())
	}
	for i, arch := range core.AllArchitectures {
		if f := strings.Fields(rows[i]); len(f) != 2 || f[0] != string(arch) {
			t.Fatalf("row %d = %q, want %s and one throughput", i, rows[i], arch)
		}
	}
	if err := runFigures([]string{"-fig", "4c"}, io.Discard); err == nil {
		t.Fatal("unknown -fig must be rejected")
	}
}

// TestParticipantRequiresCoordinator checks the distributed roles reject a
// missing -coord instead of exiting.
func TestParticipantRequiresCoordinator(t *testing.T) {
	if err := runParticipant(nil, "producer"); err == nil {
		t.Fatal("missing -coord must be rejected")
	}
}

// TestCoordinatorAggregatesParticipants drives the distributed mode
// in-process: a coordinator assigns queues to one producer and one
// consumer running against an rmq-server-equivalent broker.
func TestCoordinatorAggregatesParticipants(t *testing.T) {
	endpoint := brokerURL(t)
	coord, err := NewCoordinator("127.0.0.1:0", 2, func(h HelloMsg) AssignMsg {
		return AssignMsg{Queue: "ws-q-0", Endpoint: endpoint, Messages: 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	errc := make(chan error, 2)
	go func() { errc <- runParticipant([]string{"-coord", coord.Addr(), "-id", "0"}, "producer") }()
	go func() { errc <- runParticipant([]string{"-coord", coord.Addr(), "-id", "1"}, "consumer") }()

	res, err := coord.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if res.Consumed != 3 {
		t.Fatalf("aggregate consumed = %d, want 3", res.Consumed)
	}
}

// brokerURL starts a one-node broker and returns its amqp:// URL.
func brokerURL(t *testing.T) string {
	t.Helper()
	s, err := newTestBroker()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return fmt.Sprintf("amqp://%s/", s.Addr())
}
