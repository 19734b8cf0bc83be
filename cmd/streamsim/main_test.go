package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
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
