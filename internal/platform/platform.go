// Package platform defines the execution-platform abstraction shared
// by the BESS and OpenNetVM models: per-packet measurements combining
// the engine's work accounting with platform-specific latency and
// throughput formulas, plus a trace runner that aggregates run-level
// statistics (per-packet latency, per-flow processing time, rate).
package platform

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Measurement is one packet's platform-level account.
type Measurement struct {
	// Result is the engine's path/verdict/work decomposition.
	Result *core.PacketResult
	// WorkCycles is the paper's "CPU cycle per packet" metric,
	// including any platform-specific work additions (e.g. ONVM's
	// inter-core consolidation messages).
	WorkCycles uint64
	// LatencyCycles is the packet's end-to-end processing latency on
	// the platform's topology.
	LatencyCycles uint64
	// BottleneckCycles is the per-packet cost of the platform's
	// most-loaded core, which bounds throughput (rate = freq /
	// mean bottleneck).
	BottleneckCycles uint64
}

// Platform is an NFV execution platform hosting one service chain.
type Platform interface {
	// Name returns the platform name ("BESS" or "OpenNetVM"),
	// suffixed with " w/ SBox" when SpeedyBox is enabled.
	Name() string
	// Process runs one packet through the chain; the measurement is
	// the caller's.
	Process(pkt *packet.Packet) (Measurement, error)
	// ProcessBatch runs a vector of packets through the chain in
	// arrival order, using the caller-owned Batch scratch (one per
	// worker goroutine). Returned measurements point into the Batch and
	// are valid until its next use. A vector of one is Process;
	// platforms amortize dispatch, lookups and allocations across
	// longer vectors.
	ProcessBatch(pkts []*packet.Packet, b *Batch) ([]Measurement, error)
	// Engine exposes the underlying SpeedyBox engine.
	Engine() *core.Engine
	// Model exposes the cost model.
	Model() *cost.Model
	// Close releases platform resources (pipeline goroutines).
	Close() error
}

// Reconfigurer is the optional live-reconfiguration capability: a
// platform implementing it applies a chain plan without stopping the
// pipeline (no packet dropped, surviving NF state preserved). Callers
// type-assert:
//
//	if r, ok := p.(platform.Reconfigurer); ok { err = r.Reconfigure(plan) }
//
// Both the BESS and the ONVM model implement it; the interface stays
// separate from Platform so third-party platforms without a live path
// remain valid.
type Reconfigurer interface {
	Reconfigure(plan core.ChainPlan) error
}

// Batch is per-worker scratch for ProcessBatch: the engine-level batch
// state (rule cache, pooled result storage) plus the platform's
// measurement buffer. It must not be shared between goroutines.
type Batch struct {
	// Core is the engine-level batch scratch.
	Core *core.Batch
	meas []Measurement
}

// NewBatch returns batch scratch sized for n-packet vectors (0 picks
// core.DefaultBatchSize).
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = core.DefaultBatchSize
	}
	return &Batch{Core: core.NewBatch(n), meas: make([]Measurement, n)}
}

// Measurements returns the reusable measurement buffer resized to n
// (for platform implementations).
func (b *Batch) Measurements(n int) []Measurement {
	if cap(b.meas) < n {
		b.meas = make([]Measurement, n)
	}
	b.meas = b.meas[:n]
	return b.meas
}

// DisplayName composes the conventional platform label.
func DisplayName(base string, sbox bool) string {
	if sbox {
		return base + " w/ SBox"
	}
	return base
}

// RunResult aggregates a trace run.
type RunResult struct {
	Packets     int
	Drops       int
	WorkCycles  []uint64
	Latencies   []uint64 // cycles
	Bottlenecks []uint64
	// FlowCycles sums each flow's per-packet latency — the paper's
	// "flow processing time ... the aggregated time spent processing
	// all packets in a flow" (§VII-B3).
	FlowCycles map[flow.FID]uint64
	// QueueDepths is how many packets each multi-queue worker drained;
	// empty for serial runs.
	QueueDepths []int
	Stats       core.Stats
	model       *cost.Model
}

// NewRunResult returns an empty aggregate bound to the cost model,
// for callers (multi-chain topologies) that fold measurements in
// themselves rather than through Run/RunBatch.
func NewRunResult(m *cost.Model) *RunResult {
	return &RunResult{FlowCycles: make(map[flow.FID]uint64), model: m}
}

// Fold appends a vector of measurements into the aggregate. Call it
// before the vector's Batch is reused — measurements point into it.
func (r *RunResult) Fold(ms []Measurement) {
	for i := range ms {
		m := &ms[i]
		r.Packets++
		if m.Result.Verdict == core.VerdictDrop {
			r.Drops++
		}
		r.WorkCycles = append(r.WorkCycles, m.WorkCycles)
		r.Latencies = append(r.Latencies, m.LatencyCycles)
		r.Bottlenecks = append(r.Bottlenecks, m.BottleneckCycles)
		r.FlowCycles[m.Result.FID] += m.LatencyCycles
	}
}

// Merge appends another aggregate's packet measurements (one worker's
// partial of a concurrent run) into r. Queue depths and Stats are the
// caller's to set.
func (r *RunResult) Merge(o *RunResult) {
	r.Packets += o.Packets
	r.Drops += o.Drops
	r.WorkCycles = append(r.WorkCycles, o.WorkCycles...)
	r.Latencies = append(r.Latencies, o.Latencies...)
	r.Bottlenecks = append(r.Bottlenecks, o.Bottlenecks...)
	for fid, c := range o.FlowCycles {
		r.FlowCycles[fid] += c
	}
}

// MeanWorkCycles returns the average per-packet work.
func (r *RunResult) MeanWorkCycles() float64 { return meanU64(r.WorkCycles) }

// MeanLatencyMicros returns the average per-packet latency in µs.
func (r *RunResult) MeanLatencyMicros() float64 {
	return r.model.CyclesToMicros(1) * meanU64(r.Latencies)
}

// RateMpps returns the sustained processing rate implied by the mean
// bottleneck-core occupancy.
func (r *RunResult) RateMpps() float64 {
	return r.model.RateMpps(meanU64(r.Bottlenecks))
}

// AggregateRateMpps returns the modeled multi-queue rate: the per-core
// rate times the effective parallelism of the run's queue partition
// (total packets over the deepest queue — with W balanced queues this
// approaches W, and the deepest queue is the multi-core bottleneck).
// For serial runs it equals RateMpps.
func (r *RunResult) AggregateRateMpps() float64 {
	if len(r.QueueDepths) == 0 {
		return r.RateMpps()
	}
	total, deepest := 0, 0
	for _, d := range r.QueueDepths {
		total += d
		if d > deepest {
			deepest = d
		}
	}
	if deepest == 0 {
		return r.RateMpps()
	}
	return r.RateMpps() * float64(total) / float64(deepest)
}

// FlowTimesMicros returns every flow's processing time in µs.
func (r *RunResult) FlowTimesMicros() []float64 {
	out := make([]float64, 0, len(r.FlowCycles))
	for _, c := range r.FlowCycles {
		out = append(out, r.model.CyclesToMicros(c))
	}
	return out
}

func meanU64(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// Run feeds every packet of the trace through the platform in order,
// as one-packet vectors, and aggregates the measurements. Packet
// buffers are consumed (the platform mutates or drops them).
func Run(p Platform, pkts []*packet.Packet) (*RunResult, error) {
	return RunBatch(p, pkts, 1, nil)
}

// RunBatch feeds the trace through ProcessBatch in batchSize-packet
// vectors (0 picks core.DefaultBatchSize), in arrival order, and
// aggregates the measurements. When pool is non-nil, every packet is
// returned to it after its measurement is folded in, so pooled trace
// replay recycles descriptors.
func RunBatch(p Platform, pkts []*packet.Packet, batchSize int, pool *packet.Pool) (*RunResult, error) {
	if batchSize <= 0 {
		batchSize = core.DefaultBatchSize
	}
	b := NewBatch(batchSize)
	res := NewRunResult(p.Model())
	for off := 0; off < len(pkts); off += batchSize {
		end := min(off+batchSize, len(pkts))
		ms, err := p.ProcessBatch(pkts[off:end], b)
		if err != nil {
			return nil, fmt.Errorf("platform %s: batch at packet %d: %w", p.Name(), off, err)
		}
		res.Fold(ms)
		if pool != nil {
			for _, pkt := range pkts[off:end] {
				pool.Put(pkt)
			}
		}
	}
	res.Stats = p.Engine().Stats()
	return res, nil
}
