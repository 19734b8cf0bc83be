package amqp_test

import (
	"strings"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/tlsutil"
)

// TestBatchedConfirmsReachEveryPublish pipelines publishes against a
// broker that batches its confirms (one multiple-ack per kernel read) and
// checks the client turns them back into exactly one positive
// Confirmation per publish — over a plain listener, a TLS listener, and a
// reconnecting connection, whose confirm log also keeps every publish
// for replay.
func TestBatchedConfirmsReachEveryPublish(t *testing.T) {
	id, err := tlsutil.SelfSigned("confirm-test", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		broker broker.Config
		client amqp.Config
	}{
		{"plain", broker.Config{}, amqp.Config{}},
		{"tls", broker.Config{TLS: id.ServerConfig()}, amqp.Config{TLS: id.ClientConfig("127.0.0.1")}},
		{"tracked", broker.Config{}, amqp.Config{Reconnect: testPolicy()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startBroker(t, tc.broker)
			conn, err := amqp.DialConfig("amqp://"+s.Addr(), tc.client)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ch := openChannel(t, conn)
			if _, err := ch.QueueDeclare("batched", false, false, false, false, nil); err != nil {
				t.Fatal(err)
			}
			if err := ch.Confirm(false); err != nil {
				t.Fatal(err)
			}
			const n = 2000
			confirms := ch.NotifyPublish(make(chan amqp.Confirmation, n))
			for i := 0; i < n; i++ {
				if err := ch.Publish("", "batched", false, false, amqp.Publishing{Body: []byte("x")}); err != nil {
					t.Fatal(err)
				}
			}
			seen := make(map[uint64]bool, n)
			timeout := time.After(20 * time.Second)
			for len(seen) < n {
				select {
				case c := <-confirms:
					if !c.Ack || c.DeliveryTag < 1 || c.DeliveryTag > n || seen[c.DeliveryTag] {
						t.Fatalf("confirmation %+v: nacked, out of range or repeated", c)
					}
					seen[c.DeliveryTag] = true
				case <-timeout:
					t.Fatalf("%d of %d publishes confirmed", len(seen), n)
				}
			}
			// A synchronous call behind the last confirm: nothing further
			// may be in flight.
			if _, err := ch.QueueDeclare("batched", false, false, false, false, nil); err != nil {
				t.Fatal(err)
			}
			select {
			case c := <-confirms:
				t.Fatalf("surplus confirmation %+v", c)
			default:
			}
		})
	}
}

// TestRejectedPublishTakesNoConfirmTag: a publish that fails to encode
// never reaches the broker, so it takes no sequence number, and the next
// publish is confirmed under the number GetNextPublishSeqNo gave for it.
func TestRejectedPublishTakesNoConfirmTag(t *testing.T) {
	for _, tc := range []struct {
		name   string
		client amqp.Config
	}{
		{"plain", amqp.Config{}},
		{"tracked", amqp.Config{Reconnect: testPolicy()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startBroker(t, broker.Config{})
			conn, err := amqp.DialConfig("amqp://"+s.Addr(), tc.client)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ch := openChannel(t, conn)
			if err := ch.Confirm(false); err != nil {
				t.Fatal(err)
			}
			confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 4))
			bad := amqp.Publishing{ContentType: strings.Repeat("x", 300)}
			if err := ch.Publish("", "nowhere", false, false, bad); err == nil {
				t.Fatal("a 300-byte content type encoded")
			}
			seq := ch.GetNextPublishSeqNo()
			if err := ch.Publish("", "nowhere", false, false, amqp.Publishing{Body: []byte("x")}); err != nil {
				t.Fatal(err)
			}
			select {
			case c := <-confirms:
				if c.DeliveryTag != seq || !c.Ack {
					t.Fatalf("confirmation %+v, want an ack of seq %d", c, seq)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no confirmation")
			}
		})
	}
}
