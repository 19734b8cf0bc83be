package amqp_test

import (
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/telemetry"
)

// redirectHook is a minimal broker.ClusterHook that declares one queue
// remotely mastered at a fixed address, so the broker answers consumes
// for it with a connection-level redirect.
type redirectHook struct {
	queue string
	addr  string
}

func (h *redirectHook) Lookup(vhost, queue string) (string, bool) {
	if queue == h.queue {
		return h.addr, false
	}
	return "", true
}
func (h *redirectHook) RegisterQueue(vhost, queue string, durable bool)           {}
func (h *redirectHook) EnsureRemoteQueue(vhost, queue string, durable bool) error { return nil }
func (h *redirectHook) ForwardPublish(vhost, queue string, m *broker.Message, target broker.ConfirmTarget, seq uint64) error {
	return nil
}
func (h *redirectHook) NoteRedirect(vhost, queue string)    {}
func (h *redirectHook) Replicated(vhost, queue string) bool { return false }
func (h *redirectHook) ReplicateAppend(vhost, queue string, off uint64, m *broker.Message, target broker.ConfirmTarget, seq uint64) {
}
func (h *redirectHook) ReplicateSettle(vhost, queue string, off uint64, offs []uint64) {}
func (h *redirectHook) ApplyMirror(vhost, exchange, key string, m *broker.Message) error {
	return nil
}

// TestClientFollowsRedirect: a consume on a broker that answers with
// connection.close 302 makes a reconnect-enabled client re-dial the
// address the redirect names and resume there.
func TestClientFollowsRedirect(t *testing.T) {
	master := startBroker(t, broker.Config{})
	wrong := startBroker(t, broker.Config{Cluster: &redirectHook{queue: "redir-q", addr: master.Addr()}})

	// The queue lives on the master only.
	setup, err := amqp.Dial("amqp://" + master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	sch := openChannel(t, setup)
	if _, err := sch.QueueDeclare("redir-q", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}

	followed := telemetry.Default.Counter("amqp.redirects")
	base := followed.Load()

	conn, err := amqp.DialConfig("amqp://"+wrong.Addr(), amqp.Config{Reconnect: testPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch := openChannel(t, conn)
	deliveries, err := ch.Consume("redir-q", "rc", true, false, false, false, nil)
	if err != nil {
		t.Fatalf("consume across redirect: %v", err)
	}
	if followed.Load() == base {
		t.Fatal("amqp.redirects did not increment")
	}
	if conn.Reconnects() == 0 {
		t.Fatal("redirect did not go through the reconnect machinery")
	}

	if err := sch.Publish("", "redir-q", false, false, amqp.Publishing{Body: []byte("on-master")}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-deliveries:
		if string(d.Body) != "on-master" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery on the redirect target")
	}
}

// TestSeedsRotateOnDeadDial: when the connected broker dies for good, a
// client with Config.Seeds rotates its dial target through the seed list
// and resumes on the next live address.
func TestSeedsRotateOnDeadDial(t *testing.T) {
	dead := startBroker(t, broker.Config{})
	alive := startBroker(t, broker.Config{})

	// The queue exists on both, so the replayed consumer finds it after
	// rotation.
	for _, b := range []*broker.Server{dead, alive} {
		c, err := amqp.Dial("amqp://" + b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ch := openChannel(t, c)
		if _, err := ch.QueueDeclare("seed-q", false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	conn, err := amqp.DialConfig("amqp://"+dead.Addr(), amqp.Config{
		Reconnect: testPolicy(),
		Seeds:     []string{dead.Addr(), alive.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch := openChannel(t, conn)
	deliveries, err := ch.Consume("seed-q", "sc", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	dead.Crash()

	// Publish via the survivor; the rotated consumer must receive it.
	pub, err := amqp.Dial("amqp://" + alive.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pch := openChannel(t, pub)
	deadline := time.After(10 * time.Second)
	for {
		if err := pch.Publish("", "seed-q", false, false, amqp.Publishing{Body: []byte("rotated")}); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-deliveries:
			if string(d.Body) != "rotated" {
				t.Fatalf("got %q", d.Body)
			}
			if conn.Reconnects() == 0 {
				t.Fatal("client never reconnected")
			}
			return
		case <-time.After(100 * time.Millisecond):
			// Consumer not re-attached yet; retry.
		case <-deadline:
			t.Fatal("consumer never resumed on the seed survivor")
		}
	}
}
