package main

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/server"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// workload is one traffic mix: a chain, a seeded trace replayed as
// windows, the deployment it runs on, and the open loop's offered rate.
type workload struct {
	name string
	why  string
	// spec is the chainspec document the NFs are built from, as the
	// daemon builds them.
	spec string
	// trace is the generator configuration; the seed is filled in
	// from --seed.
	trace trace.Config
	// instances > 1 runs a cluster.Cluster of that many engines (the
	// daemon's cluster mode); 1 runs one engine behind a MultiQueue.
	instances int
	// rate is the open loop's offered load in packets per second: 20%
	// of what one goroutine sustained back to back on this workload
	// when the benchmark was written (about 2.2 Mpps, 80 kpps and
	// 110 kpps on a 2-vCPU Xeon VM), so the backlog never grows and
	// p50 tracks the program more than the queueing that host CPU
	// steal causes.
	rate float64
	// crossFlowState marks chains whose NFs keep state shared between
	// flows (MazuNAT's port pool), so a window's outputs depend on how
	// flows interleave. Their outputs are compared only on passes that
	// process the trace in its own order.
	crossFlowState bool
}

// ipfilter3 is three IPFilters with 100-rule forward-only ACLs: no NF
// rewrites headers or keeps per-packet state.
const ipfilter3 = `{"name": "hdr", "nfs": [
  {"type": "ipfilter", "name": "fw1", "acl_size": 100},
  {"type": "ipfilter", "name": "fw2", "acl_size": 100},
  {"type": "ipfilter", "name": "fw3", "acl_size": 100}]}`

// chain2 is the paper's Chain 2 (Fig. 9b): IPFilter → Snort → Monitor.
const chain2 = `{"name": "chain2", "nfs": [
  {"type": "ipfilter", "name": "ipfilter", "acl_size": 100},
  {"type": "snort", "name": "snort"},
  {"type": "monitor", "name": "monitor"}]}`

var workloads = []*workload{
	{
		name: "hdr_fastpath",
		why: "framework cost per packet: 3 IPFilters, 4096 long UDP flows of smallest frames, " +
			"all fast path after warm-up, far more flows than the flow-handle cache holds",
		spec: ipfilter3,
		trace: trace.Config{
			Flows: 4096, MeanPackets: 64, SigmaPackets: 0.01,
			PayloadMin: 16, PayloadMax: 16, UDPFraction: 1, Interleave: true,
		},
		instances: 1,
		rate:      45e4,
	},
	{
		name: "ids_chain",
		why: "the paper's Chain 2 (IPFilter, Snort, Monitor) on the default TCP trace: " +
			"payload state functions dominate, about 14% slow path",
		spec:      chain2,
		trace:     trace.Config{Flows: 2000, Interleave: true},
		instances: 1,
		rate:      16e3,
	},
	{
		name: "natlb_churn",
		why: "the daemon's default chain (MazuNAT, Maglev, Monitor, IPFilter) on a 2-instance cluster " +
			"with short TCP flows: rule installs, WAL appends and header rewrites",
		spec: server.DefaultSpecJSON,
		// 2000 flows, about 16.5k packets a window. It keeps the flow
		// sizes, slow-path share and rule churn per packet of 8000 flows
		// (66k packets), gives four times as many closed-loop windows per
		// run and halved the run-to-run spread of packets per CPU second
		// on a 2-vCPU VM (see README.md).
		trace:          trace.Config{Flows: 2000, MeanPackets: 4, Interleave: true},
		instances:      2,
		rate:           22e3,
		crossFlowState: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// chain builds a fresh set of the workload's NFs.
func (w *workload) chain() ([]core.NF, error) {
	spec, err := chainspec.Parse([]byte(w.spec))
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// generate returns the workload's trace for a seed.
func (w *workload) generate(seed int64) (*trace.Trace, error) {
	cfg := w.trace
	cfg.Seed = seed
	return trace.Generate(cfg)
}
