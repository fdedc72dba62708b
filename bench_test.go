package speedybox_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
	"github.com/fastpathnfv/speedybox/internal/harness"
)

// Benchmarks: one per table/figure of the paper's evaluation, each
// running the corresponding harness experiment and reporting the
// headline modeled metric alongside Go-level timings, plus
// micro-benchmarks of the hot code paths themselves.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

func benchCfg() harness.Config { return harness.Config{Seed: 1, Flows: 30} }

// BenchmarkFig4HeaderActionConsolidation regenerates Figure 4:
// CPU cycles per packet vs number of header actions.
func BenchmarkFig4HeaderActionConsolidation(b *testing.B) {
	var last *harness.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.SubSaving(), fmt.Sprintf("saving%%@%dHA", row.NumHA))
		}
	}
}

// BenchmarkTable3EarlyDrop regenerates Table III: early packet drop.
func BenchmarkTable3EarlyDrop(b *testing.B) {
	var last *harness.Table3Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.Saving(), "drop-saving%")
			b.ReportMetric(row.SBoxAggregate, "sbox-cycles/pkt")
		}
	}
}

// BenchmarkFig5SFParallelism regenerates Figure 5: state-function
// parallelism rate and latency.
func BenchmarkFig5SFParallelism(b *testing.B) {
	var last *harness.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BESSSpeedupAt3SF(), "bess-rate-x@3SF")
	b.ReportMetric(last.BESSLatencyReductionAt3SF(), "bess-lat-cut%@3SF")
}

// BenchmarkFig6SnortMonitor regenerates Figure 6.
func BenchmarkFig6SnortMonitor(b *testing.B) {
	var last *harness.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.WorkReduction(), "cycle-cut%")
			b.ReportMetric(row.RateImprovement(), "rate-gain%")
		}
	}
}

// BenchmarkFig7LatencyBreakdown regenerates Figure 7: ablation shares.
func BenchmarkFig7LatencyBreakdown(b *testing.B) {
	var last *harness.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		ha, sf := row.Shares()
		if row.Platform == "BESS" {
			b.ReportMetric(row.TotalReduction(), "lat-cut%")
			b.ReportMetric(ha, "ha-share%")
			b.ReportMetric(sf, "sf-share%")
		}
	}
}

// BenchmarkFig8ChainLength regenerates Figure 8: 1-9 NF chains.
func BenchmarkFig8ChainLength(b *testing.B) {
	var last *harness.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	sbox := last.Series("BESS", true)
	orig := last.Series("BESS", false)
	b.ReportMetric(orig[8].LatencyMicro, "bess-orig-us@9")
	b.ReportMetric(sbox[8].LatencyMicro, "bess-sbox-us@9")
}

// BenchmarkFig9Chain1 and BenchmarkFig9Chain2 regenerate Figure 9:
// flow-processing-time CDFs on the real-world chains.
func BenchmarkFig9Chain1(b *testing.B) { benchFig9(b, 1) }

// BenchmarkFig9Chain2 is the second real-world chain.
func BenchmarkFig9Chain2(b *testing.B) { benchFig9(b, 2) }

func benchFig9(b *testing.B, chain int) {
	b.Helper()
	var last *harness.Fig9Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig9(harness.Config{Seed: 1, Flows: 60}, chain)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Platform == "BESS" {
			b.ReportMetric(row.P50Reduction(), "p50-cut%")
		}
	}
}

// BenchmarkTable2Equivalence runs the §VII-C equivalence suite (the
// paper's correctness tables).
func BenchmarkEquivalenceSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunEquivalence(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllPassed() {
			b.Fatalf("equivalence failed:\n%s", res.Format())
		}
	}
}

// ---- Micro-benchmarks of the hot paths (real Go time, not modeled
// cycles) ----

func benchChain(b *testing.B) []speedybox.NF {
	b.Helper()
	fw, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
		Name: "fw", Rules: speedybox.PadIPFilterRules(nil, 100),
	})
	if err != nil {
		b.Fatal(err)
	}
	ids, err := speedybox.NewSnort("ids", speedybox.DefaultSnortRules())
	if err != nil {
		b.Fatal(err)
	}
	mon, err := speedybox.NewMonitor("mon")
	if err != nil {
		b.Fatal(err)
	}
	return []speedybox.NF{fw, ids, mon}
}

// BenchmarkFastPathPerPacket measures the Go-level cost of one
// fast-path packet through a 3-NF chain on BESS.
func BenchmarkFastPathPerPacket(b *testing.B) {
	p, err := speedybox.NewBESS(benchChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	mk := func(i int) *speedybox.Packet {
		pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
			SrcPort: 7777, DstPort: 80, Proto: 17, // UDP: no handshake
			Payload: []byte("bench payload bytes"),
		})
		if err != nil {
			b.Fatal(err)
		}
		return pkt
	}
	// Install the rule with one initial packet.
	if _, err := p.Process(mk(0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(mk(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastPathPerPacketTelemetry is BenchmarkFastPathPerPacket
// with a telemetry hub attached: the per-packet delta is the cost of
// live instrumentation (designed to be one atomic add per packet, zero
// extra allocations).
func BenchmarkFastPathPerPacketTelemetry(b *testing.B) {
	opts := speedybox.DefaultOptions()
	opts.Telemetry = speedybox.NewTelemetry()
	p, err := speedybox.NewBESS(benchChain(b), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	mk := func() *speedybox.Packet {
		pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
			SrcPort: 7777, DstPort: 80, Proto: 17,
			Payload: []byte("bench payload bytes"),
		})
		if err != nil {
			b.Fatal(err)
		}
		return pkt
	}
	if _, err := p.Process(mk()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlowPathPerPacket measures the original-chain traversal.
func BenchmarkSlowPathPerPacket(b *testing.B) {
	p, err := speedybox.NewBESS(benchChain(b), speedybox.BaselineOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
			SrcPort: 7777, DstPort: 80, Proto: 17,
			Payload: []byte("bench payload bytes"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkONVMPipelinePerPacket measures a packet through the real
// goroutine pipeline.
func BenchmarkONVMPipelinePerPacket(b *testing.B) {
	p, err := speedybox.NewONVM(benchChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
			SrcPort: 7777, DstPort: 80, Proto: 17,
			Payload: []byte("bench payload"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// mqChain is the multi-queue benchmark chain: three IPFilters with
// forward-only ACLs, so fast-path packets touch no shared NF state and
// the measurement isolates the engine's sharded data path.
func mqChain(b *testing.B) []speedybox.NF {
	b.Helper()
	chain := make([]speedybox.NF, 3)
	for i := range chain {
		f, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
			Name: fmt.Sprintf("fw%d", i+1), Rules: speedybox.PadIPFilterRules(nil, 100),
		})
		if err != nil {
			b.Fatal(err)
		}
		chain[i] = f
	}
	return chain
}

// mqTrace builds a subsequent-packet-dominated UDP trace: 256 flows of
// 64 data packets each (no handshakes, rules installed by the first
// packet of each flow).
func mqTrace(b *testing.B) []*speedybox.Packet {
	b.Helper()
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 256, MeanPackets: 64, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr.Packets()
}

// BenchmarkMultiQueue measures the RSS-style multi-queue runner at
// 1/2/4/8 workers over one engine's sharded state. "wall-Mpps" is real
// wall-clock throughput (it only scales with workers when the host has
// the cores); "model-Mpps" is the cost model's aggregate rate for the
// queue partition, the simulator's prediction for a real RSS NIC.
func BenchmarkMultiQueue(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, err := speedybox.NewBESS(mqChain(b), speedybox.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			mq, err := speedybox.NewMultiQueue(p, workers)
			if err != nil {
				b.Fatal(err)
			}
			// Prime: the first pass records and consolidates every
			// flow; timed passes replay the same flows fast-path.
			if _, err := mq.Run(mqTrace(b)); err != nil {
				b.Fatal(err)
			}
			var (
				pkts int
				last *speedybox.RunResult
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				trace := mqTrace(b)
				b.StartTimer()
				out, err := mq.Run(trace)
				if err != nil {
					b.Fatal(err)
				}
				pkts += out.Packets
				last = out
			}
			b.StopTimer()
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
			b.ReportMetric(last.AggregateRateMpps(), "model-Mpps")
		})
	}
}

// fastTrace builds the batched-fast-path benchmark trace: 4 UDP flows
// of ~512 data packets, interleaved — the "handful of flows per vector"
// shape the per-worker 4-way rule cache is sized for. Forward-only
// IPFilters never rewrite the packets, so the same descriptors replay
// indefinitely.
func fastTrace(b *testing.B) []*speedybox.Packet {
	b.Helper()
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 4, MeanPackets: 512, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr.Packets()
}

// BenchmarkFastPath is the one-packet half of the batching comparison:
// one Process call (a vector of one) per packet of a pre-built, replayable trace on the
// dispatch-dominated 3-IPFilter chain (no regex, no payload work — the
// measurement isolates classification, rule lookup and accounting).
// b.N counts packets, so ns/op and allocs/op read per packet.
func BenchmarkFastPath(b *testing.B) {
	p, err := speedybox.NewBESS(mqChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pkts := fastTrace(b)
	// Prime: record and consolidate every flow; timed replays then run
	// pure fast path.
	if _, err := speedybox.Run(p, pkts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(pkts[i%len(pkts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// BenchmarkFastPathBatch is the batched half: the identical trace in
// 32-packet vectors through ProcessBatch with one per-worker Batch.
// b.N still counts packets (the loop advances by vector length), so the
// figures compare directly with BenchmarkFastPath; the acceptance bar
// is >=2x packets/sec and amortized allocs < 1/packet.
func BenchmarkFastPathBatch(b *testing.B) {
	p, err := speedybox.NewBESS(mqChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pkts := fastTrace(b)
	if _, err := speedybox.Run(p, pkts); err != nil {
		b.Fatal(err)
	}
	const vec = 32
	vecs := make([][]*speedybox.Packet, 0, len(pkts)/vec)
	for off := 0; off+vec <= len(pkts); off += vec {
		vecs = append(vecs, pkts[off:off+vec])
	}
	bat := speedybox.NewBatch(vec)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; {
		v := vecs[i%len(vecs)]
		i++
		if _, err := p.ProcessBatch(v, bat); err != nil {
			b.Fatal(err)
		}
		n += len(v)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// BenchmarkFastPathBatchWAL is BenchmarkFastPathBatch with a WAL
// attached before warmup: every install journals, then the steady-state
// batched fast path runs with durability on. The journal only sees
// control-plane mutations, so per-packet cost and allocations must stay
// at the non-WAL level (the benchgate asserts <=1 alloc/packet).
func BenchmarkFastPathBatchWAL(b *testing.B) {
	p, err := speedybox.NewBESS(mqChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.Engine().AttachWAL(speedybox.NewWAL(speedybox.WALOptions{}))
	pkts := fastTrace(b)
	if _, err := speedybox.Run(p, pkts); err != nil {
		b.Fatal(err)
	}
	if p.Engine().WAL().Seq() == 0 {
		b.Fatal("warmup journaled nothing")
	}
	const vec = 32
	vecs := make([][]*speedybox.Packet, 0, len(pkts)/vec)
	for off := 0; off+vec <= len(pkts); off += vec {
		vecs = append(vecs, pkts[off:off+vec])
	}
	bat := speedybox.NewBatch(vec)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; {
		v := vecs[i%len(vecs)]
		i++
		if _, err := p.ProcessBatch(v, bat); err != nil {
			b.Fatal(err)
		}
		n += len(v)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// BenchmarkPooledReplay measures a whole-trace replay cycle with pooled
// descriptors: draw the trace from the pool, run it batched, return
// every descriptor via RunBatch. Steady state allocates no packet
// descriptors — remaining allocs/op are the run's aggregation slices.
func BenchmarkPooledReplay(b *testing.B) {
	p, err := speedybox.NewBESS(mqChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 4, MeanPackets: 512, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := speedybox.NewPacketPool()
	buf := make([]*speedybox.Packet, 0, tr.Len())
	if _, err := speedybox.RunBatch(p, tr.PacketsPooled(pool, buf), 32, pool); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkts := tr.PacketsPooled(pool, buf)
		if _, err := speedybox.RunBatch(p, pkts, 32, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallel drives one BESS platform's fast path from
// GOMAXPROCS goroutines via RunParallel, each goroutine on its own
// flow — the per-packet figure under concurrency, comparable with
// BenchmarkFastPathPerPacket's serial figure.
func BenchmarkEngineParallel(b *testing.B) {
	p, err := speedybox.NewBESS(mqChain(b), speedybox.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	var nextPort atomic.Uint32
	nextPort.Store(20000)
	b.RunParallel(func(pb *testing.PB) {
		port := uint16(nextPort.Add(1))
		mk := func() *speedybox.Packet {
			pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
				SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
				SrcPort: port, DstPort: 80, Proto: 17,
				Payload: []byte("bench payload bytes"),
			})
			if err != nil {
				b.Fatal(err)
			}
			return pkt
		}
		// Install this goroutine's rule.
		if _, err := p.Process(mk()); err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			if _, err := p.Process(mk()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopoFastPathBatch measures the multi-chain topology fast
// path: packets are classified per packet (policy match + tenant
// stamp) and drained through their chain's engine in 32-packet
// same-chain vectors, the way Topology.RunBatch and the fair-share
// MultiQueue feed chains. b.N counts packets; the benchgate asserts
// the steady state stays at <=1 alloc/packet, so adding the topology
// layer must not cost the single-chain zero-alloc property.
func BenchmarkTopoFastPathBatch(b *testing.B) {
	spec := &speedybox.TopologySpec{
		Name: "bench",
		Chains: []speedybox.TopologyChainSpec{
			{Name: "a", NFs: []speedybox.NFSpec{
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
			}},
			{Name: "b", NFs: []speedybox.NFSpec{
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
				{Type: "ipfilter", ACLSize: 100},
			}},
		},
		Policies: []speedybox.TopologyPolicySpec{
			{Chain: "a", Tenant: 1, DstPortMin: 80},
			{Chain: "b", Tenant: 2, DstPortMin: 9000},
		},
		Tenants: []speedybox.TenantSpec{{ID: 1}, {ID: 2}},
	}
	tp, err := speedybox.BuildTopology(spec, speedybox.TopologyBuildConfig{
		Options: speedybox.DefaultOptions(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()

	// Two interleaved UDP services, one per chain.
	var pkts []*speedybox.Packet
	for i, port := range []uint16{80, 9000} {
		tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
			Seed: int64(i + 1), Flows: 4, MeanPackets: 512, SigmaPackets: 0.01,
			UDPFraction: 1.0, DstPort: port, Interleave: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		pkts = append(pkts, tr.Packets()...)
	}
	// Prime: record and consolidate every flow through the topology.
	if _, err := tp.RunBatch(pkts, 32); err != nil {
		b.Fatal(err)
	}
	// Pre-split into maximal same-chain vectors, as RunBatch does.
	const vec = 32
	type chainVec struct {
		chain int
		pkts  []*speedybox.Packet
	}
	var vecs []chainVec
	for off := 0; off < len(pkts); {
		chain := tp.Route(pkts[off])
		end := off + 1
		for end < len(pkts) && end-off < vec && tp.Route(pkts[end]) == chain {
			end++
		}
		vecs = append(vecs, chainVec{chain: chain, pkts: pkts[off:end]})
		off = end
	}
	bats := make([]*speedybox.Batch, tp.NumChains())
	for i := range bats {
		bats[i] = speedybox.NewBatch(vec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; {
		v := vecs[i%len(vecs)]
		i++
		// Classify per packet in the timed region — the dispatcher does.
		for _, pkt := range v.pkts {
			tp.Route(pkt)
		}
		if _, err := tp.Chain(v.chain).Platform.ProcessBatch(v.pkts, bats[v.chain]); err != nil {
			b.Fatal(err)
		}
		n += len(v.pkts)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// BenchmarkClusterFastPathBatch measures the clustered fast path in
// steady state: a 2-instance fleet behind the consistent-hash steerer,
// fed 32-packet vectors that ProcessRuns splits into same-instance
// runs. Steering (route + view recheck + instance RLock) is in the
// timed region — that is the cluster's per-packet overhead versus
// BenchmarkFastPathBatch. Gated at 0 allocs/packet in CI: one
// generation-banded Batch serves every instance, so the migration
// machinery must cost nothing when no rebalance is in flight.
func BenchmarkClusterFastPathBatch(b *testing.B) {
	cl, err := speedybox.NewCluster(speedybox.ClusterConfig{
		Chain: mqChain(b), Options: speedybox.DefaultOptions(), Instances: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 1, Flows: 8, MeanPackets: 256, SigmaPackets: 0.01,
		UDPFraction: 1.0, Interleave: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pkts := tr.Packets()
	// Prime: record and consolidate every flow on its home instance;
	// timed replays then run pure fast path.
	if _, err := cl.RunBatch(pkts, 32, nil); err != nil {
		b.Fatal(err)
	}
	spread := 0
	for _, in := range cl.Instances() {
		if in.Flows > 0 {
			spread++
		}
	}
	if spread < 2 {
		b.Fatalf("trace landed on %d instance(s); steering not exercised", spread)
	}
	const vec = 32
	vecs := make([][]*speedybox.Packet, 0, len(pkts)/vec)
	for off := 0; off+vec <= len(pkts); off += vec {
		vecs = append(vecs, pkts[off:off+vec])
	}
	bat := speedybox.NewBatch(vec)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; {
		v := vecs[i%len(vecs)]
		i++
		if err := cl.ProcessRuns(v, vec, bat, nil); err != nil {
			b.Fatal(err)
		}
		n += len(v)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "pkts-Mpps")
}

// BenchmarkTraceGeneration measures synthetic trace synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: int64(i), Flows: 100, Interleave: true}); err != nil {
			b.Fatal(err)
		}
	}
}
