package amqp_test

import (
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
)

func TestExchangeDeclareAndDelete(t *testing.T) {
	s := startBroker(t, broker.Config{})
	c := dial(t, s)
	ch := openChannel(t, c)
	if err := ch.ExchangeDeclare("tmp-x", "direct", false, false, false, false, nil); err != nil {
		t.Fatal(err)
	}
	// Conflicting kind must raise a channel exception.
	ch2 := openChannel(t, c)
	if err := ch2.ExchangeDeclare("tmp-x", "fanout", false, false, false, false, nil); err == nil {
		t.Fatal("expected kind-conflict exception")
	}
	if err := ch.ExchangeDelete("tmp-x", false, false); err != nil {
		t.Fatal(err)
	}
}

func TestQueueUnbindStopsRouting(t *testing.T) {
	s := startBroker(t, broker.Config{})
	c := dial(t, s)
	ch := openChannel(t, c)
	ch.ExchangeDeclare("ub-x", "direct", false, false, false, false, nil)
	q, _ := ch.QueueDeclare("ub-q", false, false, false, false, nil)
	ch.QueueBind(q.Name, "k", "ub-x", false, nil)
	ch.Publish("ub-x", "k", false, false, amqp.Publishing{Body: []byte("a")})
	// The unbind and the gets are synchronous calls on the publishing
	// channel, whose frames the broker serves in order: each is the
	// barrier for the publish before it.
	if err := ch.QueueUnbind(q.Name, "k", "ub-x", nil); err != nil {
		t.Fatal(err)
	}
	ch.Publish("ub-x", "k", false, false, amqp.Publishing{Body: []byte("b")})
	d, ok, _ := ch.Get(q.Name, true)
	if !ok || string(d.Body) != "a" {
		t.Fatalf("first get: ok=%v body=%q", ok, d.Body)
	}
	if _, ok, _ := ch.Get(q.Name, true); ok {
		t.Fatal("message routed after unbind")
	}
}

func TestNotifyCloseOnChannelException(t *testing.T) {
	s := startBroker(t, broker.Config{})
	c := dial(t, s)
	ch := openChannel(t, c)
	closed := ch.NotifyClose(make(chan *amqp.Error, 1))
	// Passive declare of a missing queue raises the exception.
	if _, err := ch.QueueDeclare("", false, false, false, false, amqp.Table{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Consume("never-declared", "", true, false, false, false, nil); err == nil {
		t.Fatal("expected exception")
	}
	select {
	case e := <-closed:
		if e == nil {
			t.Fatal("nil error on close notification")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("NotifyClose never fired")
	}
}

func TestConnectionNotifyCloseOnServerShutdown(t *testing.T) {
	s := startBroker(t, broker.Config{})
	c, err := amqp.Dial("amqp://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	closed := c.NotifyClose(make(chan *amqp.Error, 1))
	s.Close()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("connection close never observed")
	}
	if !c.IsClosed() {
		t.Fatal("IsClosed false after shutdown")
	}
}

func TestCancelStopsDeliveries(t *testing.T) {
	s := startBroker(t, broker.Config{})
	c := dial(t, s)
	ch := openChannel(t, c)
	q, _ := ch.QueueDeclare("cancel-q", false, false, false, false, nil)
	dc, err := ch.Consume(q.Name, "tag-1", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Cancel("tag-1", false); err != nil {
		t.Fatal(err)
	}
	// Channel closes and later publishes stay in the queue.
	if _, ok := <-dc; ok {
		t.Fatal("delivery after cancel")
	}
	ch.Publish("", q.Name, false, false, amqp.Publishing{Body: []byte("parked")})
	if _, ok, _ := ch.Get(q.Name, true); !ok {
		t.Fatal("message lost after cancel")
	}
}

func TestHeartbeatKeepsIdleConnectionAlive(t *testing.T) {
	s := startBroker(t, broker.Config{Heartbeat: time.Second})
	c, err := amqp.DialConfig("amqp://"+s.Addr(), amqp.Config{Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch, err := c.Channel()
	if err != nil {
		t.Fatal(err)
	}
	// Idle well past two heartbeat intervals; the connection must survive.
	time.Sleep(2500 * time.Millisecond)
	if _, err := ch.QueueDeclare("hb-q", false, false, false, false, nil); err != nil {
		t.Fatalf("connection died during idle: %v", err)
	}
}

func TestConcurrentChannelsOneConnection(t *testing.T) {
	s := startBroker(t, broker.Config{})
	c := dial(t, s)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			ch, err := c.Channel()
			if err != nil {
				errs <- err
				return
			}
			name := string(rune('a'+i)) + "-chq"
			if _, err := ch.QueueDeclare(name, false, false, false, false, nil); err != nil {
				errs <- err
				return
			}
			for m := 0; m < 10; m++ {
				if err := ch.Publish("", name, false, false, amqp.Publishing{Body: []byte{byte(m)}}); err != nil {
					errs <- err
					return
				}
			}
			errs <- ch.Close()
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
