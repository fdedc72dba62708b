package main

import (
	"runtime"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// stack is the system under test, built the way speedyboxd builds it:
// a telemetry hub, the chain from its spec, and either one BESS engine
// with an in-memory WAL behind a MultiQueue, or a cluster of engines
// with per-instance WALs. Both drain vectors of core.DefaultBatchSize
// on nproc workers.
type stack struct {
	hub     *telemetry.Hub
	plat    *bess.Platform       // single-engine mode
	mq      *platform.MultiQueue // single-engine mode
	cl      *cluster.Cluster     // cluster mode
	bat     *platform.Batch      // the single-goroutine path's scratch
	workers int
}

func newStack(w *workload, instances int) (*stack, error) {
	chain, err := w.chain()
	if err != nil {
		return nil, err
	}
	hub := telemetry.NewHub()
	opts := core.DefaultOptions()
	opts.Telemetry = hub
	s := &stack{hub: hub, bat: platform.NewBatch(core.DefaultBatchSize), workers: runtime.NumCPU()}
	if instances > 1 {
		s.cl, err = cluster.New(cluster.Config{
			Chain: chain, Options: opts, Instances: instances, Hub: hub, Durable: true,
		})
		return s, err
	}
	if s.plat, err = bess.New(bess.Config{Chain: chain, Options: opts}); err != nil {
		return nil, err
	}
	s.plat.Engine().AttachWAL(wal.NewWriter(wal.Options{}))
	if s.mq, err = platform.NewMultiQueue(s.plat, s.workers); err != nil {
		return nil, err
	}
	s.mq.SetBatchSize(core.DefaultBatchSize)
	return s, nil
}

func (s *stack) close() error {
	if s.cl != nil {
		return s.cl.Close()
	}
	return s.plat.Close()
}

// run is the closed loop's path for one window: MultiQueue.Run or
// Cluster.Run, the daemon pump's sink.
func (s *stack) run(pkts []*packet.Packet) (*platform.RunResult, error) {
	if s.cl != nil {
		return s.cl.Run(pkts, s.workers, core.DefaultBatchSize)
	}
	return s.mq.Run(pkts)
}

// process drains pkts in arrival order on the calling goroutine,
// through Platform.ProcessBatch or Cluster.ProcessRuns, and stores each
// packet's verdict.
func (s *stack) process(pkts []*packet.Packet, verdicts []core.Verdict) error {
	if s.cl != nil {
		return s.cl.ProcessRuns(pkts, core.DefaultBatchSize, s.bat, func(off int, ms []platform.Measurement) error {
			for i := range ms {
				verdicts[off+i] = ms[i].Result.Verdict
			}
			return nil
		})
	}
	for off := 0; off < len(pkts); off += core.DefaultBatchSize {
		end := min(off+core.DefaultBatchSize, len(pkts))
		ms, err := s.plat.ProcessBatch(pkts[off:end], s.bat)
		if err != nil {
			return err
		}
		for i := range ms {
			verdicts[off+i] = ms[i].Result.Verdict
		}
	}
	return nil
}

func (s *stack) engines() []*core.Engine {
	if s.cl == nil {
		return []*core.Engine{s.plat.Engine()}
	}
	out := make([]*core.Engine, s.cl.Len())
	for i := range out {
		out[i] = s.cl.Engine(i)
	}
	return out
}

// counts is the deterministic state a pass leaves behind: engine
// counters, live rules and WAL records.
type counts struct {
	stats core.Stats
	rules int
	wal   uint64
}

func (s *stack) counts() counts {
	var c counts
	for _, e := range s.engines() {
		c.stats.Add(e.Stats())
		c.rules += e.Global().Len()
		c.wal += e.WAL().Seq()
	}
	return c
}

// hubCounter sums every series of a hub counter, across the
// {chain="<instance>"} labels a cluster adds.
func hubCounter(hub *telemetry.Hub, name string) uint64 {
	var sum uint64
	for _, n := range hub.Registry.Names() {
		if n == name || strings.HasPrefix(n, name+"{") {
			sum += hub.Registry.Counter(n, "").Value()
		}
	}
	return sum
}

// replay holds a trace's pristine packets and the working copies each
// window consumes (NFs rewrite and drop packets in place).
type replay struct {
	src []*packet.Packet
	buf []*packet.Packet
}

func newReplay(src []*packet.Packet) *replay {
	buf := make([]*packet.Packet, len(src))
	for i, p := range src {
		buf[i] = p.Clone()
	}
	return &replay{src: src, buf: buf}
}

// fill restores the working copies to the trace's bytes and returns
// them. It reuses their buffers, so it runs outside timed regions and
// allocates almost nothing.
func (r *replay) fill() []*packet.Packet {
	for i, p := range r.src {
		p.CloneInto(r.buf[i])
	}
	return r.buf
}
