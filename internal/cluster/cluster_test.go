package cluster

import (
	"fmt"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
)

func TestStartAndClose(t *testing.T) {
	c, err := StartWithOptions(3, Options{}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	addrs := c.Addrs()
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
	}
}

func TestStartRejectsZeroNodes(t *testing.T) {
	if _, err := StartWithOptions(0, Options{}, func(int) broker.Config { return broker.Config{} }); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlacementIsStableAndSpread(t *testing.T) {
	c, err := StartWithOptions(3, Options{}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counts := map[int]int{}
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("queue-%d", i)
		o1 := c.OwnerOf(name)
		o2 := c.OwnerOf(name)
		if o1 != o2 {
			t.Fatalf("placement unstable for %s", name)
		}
		if got := c.AddrFor(name); got != c.Node(o1).Addr() {
			t.Fatalf("AddrFor mismatch")
		}
		counts[o1]++
	}
	for n := 0; n < 3; n++ {
		if counts[n] == 0 {
			t.Errorf("node %d received no queues: %v", n, counts)
		}
	}
}

func TestClusterEndToEndAcrossNodes(t *testing.T) {
	c, err := StartWithOptions(3, Options{}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Producer and consumer both attach to the queue's master node.
	qname := "cross-node-q"
	addr := c.AddrFor(qname)
	prod, err := amqp.Dial("amqp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pch, _ := prod.Channel()
	pch.QueueDeclare(qname, false, false, false, false, nil)

	cons, err := amqp.Dial("amqp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	cch, _ := cons.Channel()
	dc, err := cch.Consume(qname, "", true, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	pch.Publish("", qname, false, false, amqp.Publishing{Body: []byte("hi")})
	select {
	case d := <-dc:
		if string(d.Body) != "hi" {
			t.Fatalf("got %q", d.Body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no delivery")
	}
}
