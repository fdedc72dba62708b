package sfunc

import (
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

func benchBatches(n int, work int) []Batch {
	batches := make([]Batch, n)
	for i := range batches {
		batches[i] = Batch{
			NF: fmt.Sprintf("nf%d", i),
			Funcs: []Func{{
				Name: "scan", Class: ClassRead,
				Run: func(p *packet.Packet) (uint64, error) {
					var sum byte
					payload := p.Payload()
					for w := 0; w < work; w++ {
						for _, b := range payload {
							sum ^= b
						}
					}
					_ = sum
					return uint64(len(payload)), nil
				},
			}},
		}
	}
	return batches
}

func benchPacket(b *testing.B) *packet.Packet {
	b.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 512),
	})
}

// BenchmarkExecuteParallel vs BenchmarkExecuteSequential compares the
// two executors on the same read-class batches. Both run inline, so
// the wall-clock figures should match; the §V-C2 parallelism shows up
// only in the charged cycles (max + forkJoin against the sum).
func BenchmarkExecuteParallel(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("batches=%d", n), func(b *testing.B) {
			batches := benchBatches(n, 50)
			plan := Plan(batches)
			pkt := benchPacket(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(batches, pkt, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteSequential is the baseline half of the ablation.
func BenchmarkExecuteSequential(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("batches=%d", n), func(b *testing.B) {
			batches := benchBatches(n, 50)
			pkt := benchPacket(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteSequential(batches, pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlan measures schedule synthesis, charged once per
// consolidation.
func BenchmarkPlan(b *testing.B) {
	batches := benchBatches(8, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Plan(batches)
	}
}
