// Deleria example: a GRETA-style distributed event pipeline (paper §5.1).
//
// Simulated detector crates stream compressed event batches into a forward
// buffer queue on one cluster node; analysis workers pull batches
// asynchronously, "track" the gamma-ray events, and push processed events
// to a remote event builder on another node, bridged by a shovel — the
// Deleria data flow ("consumers pull event batches asynchronously from a
// remote forward buffer, while pushing processed events to a remote event
// builder"). JSON control messages start and stop the run.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/cluster"
	"ds2hpc/internal/payload/deleria"
)

const (
	detectors     = 12 // scaled-down stand-in for the 120 simulated crates
	batchesPerDet = 10
	forwardBuffer = "deleria-forward-buffer"
	eventBuilder  = "deleria-event-builder"
	controlQueue  = "deleria-control"
)

func main() {
	// A 3-node cluster like the paper's DSN deployment. The forward
	// buffer and event builder live on their hash-assigned master nodes.
	cl, err := cluster.StartWithOptions(3, cluster.Options{}, func(int) broker.Config { return broker.Config{} })
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Println("3-node streaming service up:", cl.Addrs())

	declare := func(queue string) {
		conn, err := amqp.Dial("amqp://" + cl.AddrFor(queue))
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		ch, _ := conn.Channel()
		if _, err := ch.QueueDeclare(queue, true, false, false, false, amqp.Table{
			"x-overflow": "reject-publish",
		}); err != nil {
			log.Fatal(err)
		}
	}
	declare(forwardBuffer)
	declare(eventBuilder)
	declare(controlQueue)

	// Shovel: forward buffer node -> event builder node, the cross-node
	// bridge of the distributed pipeline. The intermediate queue workers
	// publish into must share the forward buffer's master node so they
	// can use their existing connection.
	intermediate := declareOnNode(cl, "deleria-processed", cl.OwnerOf(forwardBuffer))
	shovel, err := cluster.NewShovel(cluster.ShovelConfig{
		SourceURL: "amqp://" + cl.AddrFor(intermediate), SourceQ: intermediate,
		DestURL: "amqp://" + cl.AddrFor(eventBuilder), DestQ: eventBuilder,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer shovel.Stop()

	// Control plane: announce the run with a JSON control message.
	ctrlConn, _ := amqp.Dial("amqp://" + cl.AddrFor(controlQueue))
	defer ctrlConn.Close()
	ctrlCh, _ := ctrlConn.Channel()
	ctrl, _ := deleria.EncodeControl(&deleria.Control{Type: "start", RunID: 7})
	ctrlCh.Publish("", controlQueue, false, false, amqp.Publishing{
		ContentType: "application/json", Body: ctrl,
	})

	// Analysis workers: pull batches, decode, track, push processed.
	var tracked atomic.Int64
	for w := 0; w < 4; w++ {
		go worker(cl, w, &tracked)
	}

	// Detector crates: stream event batches into the forward buffer.
	prodConn, err := amqp.Dial("amqp://" + cl.AddrFor(forwardBuffer))
	if err != nil {
		log.Fatal(err)
	}
	defer prodConn.Close()
	pch, _ := prodConn.Channel()
	start := time.Now()
	var seq uint64
	for det := 0; det < detectors; det++ {
		for b := 0; b < batchesPerDet; b++ {
			batch := deleria.NewBatch(seq)
			body, err := deleria.EncodeBatch(batch)
			if err != nil {
				log.Fatal(err)
			}
			if err := pch.Publish("", forwardBuffer, false, false, amqp.Publishing{
				ContentType: "application/octet-stream",
				AppID:       fmt.Sprintf("crate-%d", det),
				Body:        body,
			}); err != nil {
				log.Fatal(err)
			}
			seq++
		}
	}
	fmt.Printf("streamed %d batches (%d events) from %d detector crates\n",
		seq, seq*deleria.EventsPerMessage, detectors)

	// Drain: wait for the event builder to hold every processed batch.
	want := int64(detectors * batchesPerDet)
	ebConn, _ := amqp.Dial("amqp://" + cl.AddrFor(eventBuilder))
	defer ebConn.Close()
	ebCh, _ := ebConn.Channel()
	deadline := time.Now().Add(30 * time.Second)
	for {
		q, err := ebCh.QueueDeclare(eventBuilder, true, false, false, false, nil)
		if err != nil {
			log.Fatal(err)
		}
		if int64(q.Messages) >= want {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("event builder has %d/%d batches", q.Messages, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
	elapsed := time.Since(start)
	stop, _ := deleria.EncodeControl(&deleria.Control{Type: "stop", RunID: 7})
	ctrlCh.Publish("", controlQueue, false, false, amqp.Publishing{Body: stop})
	// The last message of the run: Publish has only queued it on the
	// connection. Closing the channel is a round trip behind it, so the
	// control queue holds it before the cluster is torn down.
	if err := ctrlCh.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline complete: %d batches tracked and rebuilt in %v (%.0f events/sec)\n",
		want, elapsed.Round(time.Millisecond),
		float64(want*deleria.EventsPerMessage)/elapsed.Seconds())
	fmt.Printf("shovel moved %d batches across nodes\n", shovel.Moved())
}

// worker pulls batches from the forward buffer, decodes and "tracks" the
// events, and publishes processed batches for the shovel to move.
func worker(cl *cluster.Cluster, id int, tracked *atomic.Int64) {
	conn, err := amqp.Dial("amqp://" + cl.AddrFor(forwardBuffer))
	if err != nil {
		log.Print(err)
		return
	}
	defer conn.Close()
	ch, _ := conn.Channel()
	ch.Qos(4, 0, false)
	deliveries, err := ch.Consume(forwardBuffer, fmt.Sprintf("worker-%d", id), false, false, false, false, nil)
	if err != nil {
		log.Print(err)
		return
	}
	for d := range deliveries {
		events, err := deleria.DecodeBatch(d.Body)
		if err != nil {
			log.Printf("worker %d: corrupt batch: %v", id, err)
			d.Nack(false, false)
			continue
		}
		// "Track" each event: trivial energy sum stands in for the
		// gamma-ray tracking computation.
		var total float64
		for _, ev := range events {
			total += ev.Energy
		}
		_ = total
		tracked.Add(int64(len(events)))
		body, _ := deleria.EncodeBatch(events)
		if err := ch.Publish("", processedQueue, false, false, amqp.Publishing{
			ContentType: "application/octet-stream",
			Body:        body,
		}); err != nil {
			log.Print(err)
			return
		}
		d.Ack(false)
	}
}

// processedQueue is resolved at startup to a name co-located with the
// forward buffer.
var processedQueue string

// declareOnNode derives a queue name that hashes to the wanted node (queue
// masters are placed by name hash), declares it, and returns the name.
func declareOnNode(cl *cluster.Cluster, base string, node int) string {
	name := base
	for i := 0; cl.OwnerOf(name) != node; i++ {
		name = fmt.Sprintf("%s~%d", base, i)
	}
	conn, err := amqp.Dial("amqp://" + cl.AddrFor(name))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	ch, _ := conn.Channel()
	if _, err := ch.QueueDeclare(name, true, false, false, false, nil); err != nil {
		log.Fatal(err)
	}
	processedQueue = name
	return name
}
