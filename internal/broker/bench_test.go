package broker

import (
	"fmt"
	"testing"

	"ds2hpc/internal/broker/seglog"
	"ds2hpc/internal/wire"
)

// BenchmarkFanoutPublishDeliver measures the broker data plane in
// isolation: assemble one message body (as ingest does from frame
// payloads), route it through a fanout exchange into every bound queue,
// take from each queue's consumer ring, and acknowledge. It is the
// structural hot path behind every streaming-rate figure — the per-op
// cost here bounds broker throughput before the wire is even touched.
// BenchmarkDurableFanoutPublishDeliver is the durable twin of
// BenchmarkFanoutPublishDeliver: the same fanout publish → deliver → ack
// cycle, but every queue persists to an append-only segment log
// (fsync=never, so the OS page cache absorbs the writes and the benchmark
// isolates the CPU cost of durability: CRC framing, offset bookkeeping,
// settlement commits). The delta against the in-memory benchmark is the
// paper-facing price of crash safety on the broker hot path.
func BenchmarkDurableFanoutPublishDeliver(b *testing.B) {
	for _, fan := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("queues=%d", fan), func(b *testing.B) {
			vh := NewVHost("/")
			vh.logDir = b.TempDir()
			vh.logOpts = seglog.Options{Fsync: seglog.FsyncNever}
			e, err := vh.DeclareExchange("fan", KindFanout, false)
			if err != nil {
				b.Fatal(err)
			}
			queues := make([]*Queue, fan)
			conss := make([]*consumer, fan)
			for i := range queues {
				q, err := vh.DeclareQueue(fmt.Sprintf("bench-dfan-%d", i), true, false, false, false, nil)
				if err != nil {
					b.Fatal(err)
				}
				e.Bind(q, "")
				c, err := q.AddConsumer("c", false, 8)
				if err != nil {
					b.Fatal(err)
				}
				queues[i], conss[i] = q, c
			}
			defer vh.crash()
			payload := make([]byte, 4096)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg := NewMessage("fan", "", wire.Properties{}, len(payload))
				msg.AppendBody(payload)
				if _, err := vh.Publish("fan", "", msg); err != nil {
					b.Fatal(err)
				}
				msg.Release() // publisher's reference
				for j, c := range conss {
					d, _ := takeOne(queues[j], c)
					queues[j].AckN(c, 1)
					d.msg.Release() // queue's reference, resolved by the ack
				}
			}
		})
	}
}

func BenchmarkFanoutPublishDeliver(b *testing.B) {
	for _, fan := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("queues=%d", fan), func(b *testing.B) {
			vh := NewVHost("/")
			e, err := vh.DeclareExchange("fan", KindFanout, false)
			if err != nil {
				b.Fatal(err)
			}
			queues := make([]*Queue, fan)
			conss := make([]*consumer, fan)
			for i := range queues {
				q, err := vh.DeclareQueue(fmt.Sprintf("bench-fan-%d", i), false, false, false, false, nil)
				if err != nil {
					b.Fatal(err)
				}
				e.Bind(q, "")
				c, err := q.AddConsumer("c", false, 8)
				if err != nil {
					b.Fatal(err)
				}
				queues[i], conss[i] = q, c
			}
			payload := make([]byte, 4096)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Ingest: the body arrives as frame payloads and is
				// assembled into one pooled buffer presized from the
				// content header's BodySize.
				msg := NewMessage("fan", "", wire.Properties{}, len(payload))
				msg.AppendBody(payload)
				if _, err := vh.Publish("fan", "", msg); err != nil {
					b.Fatal(err)
				}
				msg.Release() // publisher's reference
				for j, c := range conss {
					d, _ := takeOne(queues[j], c)
					queues[j].AckN(c, 1)
					d.msg.Release() // queue's reference, resolved by the ack
				}
			}
		})
	}
}
