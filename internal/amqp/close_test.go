package amqp_test

// Teardown against listeners nobody drains. The connection's owner
// goroutine is the only one that sends on, and the only one that closes,
// the channels the library hands out, so Close, Channel.Close and Cancel
// must get it out of a blocked send and wait for it — never close a
// channel under it.

import (
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/wire"
)

// within fails the test unless f returns in time.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// closedWithin drains c until it is closed.
func closedWithin[T any](t *testing.T, what string, c <-chan T) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-c:
			if !ok {
				return
			}
		case <-timeout:
			t.Fatalf("%s was never closed", what)
		}
	}
}

// fillQueue declares q and puts n messages on it through a second
// connection, waiting until the broker holds them all.
func fillQueue(t *testing.T, s *broker.Server, q string, n int) {
	t.Helper()
	ch := openChannel(t, dial(t, s))
	if _, err := ch.QueueDeclare(q, false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ch.Publish("", q, false, false, amqp.Publishing{Body: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "queue filled", func() bool {
		got, err := ch.QueueDeclare(q, false, false, false, false, nil)
		return err == nil && got.Messages >= n
	})
}

// TestCloseWithUndrainedListeners: Close with a full confirm listener
// (SNIPPETS' cap-1 NotifyPublish idiom, 64 publishes outstanding), Close
// with a full Consume channel, and Cancel while deliveries are in flight
// to a consumer nobody reads. None may panic or hang; every channel the
// library sent on ends closed; and once the queues are gone every pooled
// body loan is back.
func TestCloseWithUndrainedListeners(t *testing.T) {
	t.Run("confirm-listener", func(t *testing.T) {
		s := startBroker(t, broker.Config{})
		base := wire.LoanedBytes()
		conn, err := amqp.Dial("amqp://" + s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ch := openChannel(t, conn)
		if _, err := ch.QueueDeclare("undrained-q", false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		if err := ch.Confirm(false); err != nil {
			t.Fatal(err)
		}
		confirms := ch.NotifyPublish(make(chan amqp.Confirmation, 1))
		returns := ch.NotifyReturn(make(chan amqp.Return, 1))
		chClosed := ch.NotifyClose(make(chan *amqp.Error, 1))
		connClosed := conn.NotifyClose(make(chan *amqp.Error, 1))
		for i := 0; i < 64; i++ {
			if err := ch.Publish("", "undrained-q", false, false, amqp.Publishing{Body: make([]byte, 512)}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the listener full", func() bool { return len(confirms) == cap(confirms) })
		within(t, "Close", conn.Close)
		closedWithin(t, "the confirm listener", confirms)
		closedWithin(t, "the return listener", returns)
		closedWithin(t, "the channel's close listener", chClosed)
		closedWithin(t, "the connection's close listener", connClosed)
		if _, err := s.VHost("/").DeleteQueue("undrained-q", false, false); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "loans back to the baseline", func() bool { return wire.LoanedBytes() == base })
	})

	t.Run("consume-channel", func(t *testing.T) {
		s := startBroker(t, broker.Config{})
		base := wire.LoanedBytes()
		fillQueue(t, s, "undrained-q", 64)
		conn, err := amqp.Dial("amqp://" + s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ch := openChannel(t, conn)
		deliveries, err := ch.Consume("undrained-q", "", false, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the delivery channel full", func() bool { return len(deliveries) == cap(deliveries) })
		within(t, "Close", conn.Close)
		closedWithin(t, "the delivery channel", deliveries)
		if _, err := s.VHost("/").DeleteQueue("undrained-q", false, false); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "loans back to the baseline", func() bool { return wire.LoanedBytes() == base })
	})

	t.Run("cancel-in-flight", func(t *testing.T) {
		s := startBroker(t, broker.Config{})
		base := wire.LoanedBytes()
		fillQueue(t, s, "undrained-q", 64)
		conn, err := amqp.Dial("amqp://" + s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ch := openChannel(t, conn)
		deliveries, err := ch.Consume("undrained-q", "c", false, false, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-deliveries // one taken, the rest in flight behind a channel nobody reads
		within(t, "Cancel", func() error { return ch.Cancel("c", false) })
		closedWithin(t, "the delivery channel", deliveries)
		// The channel is still usable, and its unacked deliveries are
		// requeued when it closes.
		if _, err := ch.QueueDeclare("undrained-q", false, false, false, false, nil); err != nil {
			t.Fatal(err)
		}
		within(t, "Channel.Close", ch.Close)
		within(t, "Close", conn.Close)
		q, ok := s.VHost("/").Queue("undrained-q")
		if !ok {
			t.Fatal("queue vanished")
		}
		waitFor(t, "every message requeued", func() bool { return q.Len() == 64 })
		if _, err := s.VHost("/").DeleteQueue("undrained-q", false, false); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "loans back to the baseline", func() bool { return wire.LoanedBytes() == base })
	})
}
