package amqp_test

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"testing"
	"time"

	"ds2hpc/internal/amqp"
	"ds2hpc/internal/broker"
	"ds2hpc/internal/netem"
	"ds2hpc/internal/tlsutil"
)

// TestPublishBorrowsBodyOnlyUntilItReturns pins the send-side ownership
// rule: Publish reads Publishing.Body while it runs and never after it
// returns. The producer reuses one buffer and scribbles over it the
// moment each Publish is back; the consumer checks every delivery against
// the CRC the producer put in the message id. A body still referenced
// after Publish returned would arrive scribbled (and trip -race). Run on
// every destination kind FlushFrames distinguishes — raw TCP (writev),
// TLS and a netem-wrapped socket (gathered writes, chunks in place) — at
// the borrow floor, at the gather cap and across eight frames, and with
// 64 B and 1 KiB bodies, which are copied at Publish and wait in the
// connection's send buffer for a write that may come after it returned.
func TestPublishBorrowsBodyOnlyUntilItReturns(t *testing.T) {
	id, err := tlsutil.SelfSigned("broker", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	link := func() *netem.Link { return netem.NewLink("unshaped", 0, 0) }
	transports := []struct {
		name   string
		server broker.Config
		client amqp.Config
	}{
		{"plain", broker.Config{}, amqp.Config{}},
		{"tls", broker.Config{TLS: id.ServerConfig()}, amqp.Config{TLS: id.ClientConfig("127.0.0.1")}},
		{"netem", broker.Config{Link: link()}, amqp.Config{Dial: (&netem.Dialer{Link: link()}).Dial}},
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	const msgs = 40
	for _, tr := range transports {
		for _, size := range []int{64, 1 << 10, 2 << 10, 64 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%s/%d", tr.name, size), func(t *testing.T) {
				s := startBroker(t, tr.server)
				scheme := "amqp://"
				if tr.client.TLS != nil {
					scheme = "amqps://"
				}
				conn, err := amqp.DialConfig(scheme+s.Addr(), tr.client)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				pub, con := openChannel(t, conn), openChannel(t, conn)
				if _, err := pub.QueueDeclare("own-q", false, false, false, false, nil); err != nil {
					t.Fatal(err)
				}
				deliveries, err := con.Consume("own-q", "", false, false, false, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				pubErr := make(chan error, 1)
				go func() {
					buf := make([]byte, size)
					for i := 0; i < msgs; i++ {
						for j := range buf {
							buf[j] = byte(i + j*31)
						}
						sum := crc32.Checksum(buf, castagnoli)
						err := pub.Publish("", "own-q", false, false, amqp.Publishing{
							MessageID: strconv.FormatUint(uint64(sum), 16), Body: buf,
						})
						if err != nil {
							pubErr <- err
							return
						}
						for j := range buf {
							buf[j] = 0xEE // the buffer is the producer's again
						}
					}
				}()
				for i := 0; i < msgs; i++ {
					select {
					case d := <-deliveries:
						if got := strconv.FormatUint(uint64(crc32.Checksum(d.Body, castagnoli)), 16); len(d.Body) != size || got != d.MessageID {
							t.Fatalf("delivery %d: %d bytes with CRC %s, published %d bytes with CRC %s", i, len(d.Body), got, size, d.MessageID)
						}
						if err := d.Ack(false); err != nil {
							t.Fatal(err)
						}
					case err := <-pubErr:
						t.Fatal(err)
					case <-time.After(20 * time.Second):
						t.Fatalf("delivery %d of %d never arrived", i, msgs)
					}
				}
			})
		}
	}
}
