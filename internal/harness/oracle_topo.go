package harness

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/topo"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// The multi-chain oracle extends the differential property to
// topologies: three chains with different semantics (a pass-through
// IDS chain, a MAC-rewriting VoIP chain, a DoS-filtered bulk chain)
// share a monitor instance and split flows by destination port across
// three tenants with deliberately tight quotas. Every packet runs
// through the fast topology (SpeedyBox engines, fault injector, tenant
// admission) and through a pure slow-path reference topology built
// from the same spec, in lockstep, and must take the same chain on
// both; admission denials must never change a verdict,
// reconfigurations and crash-restores on one chain must never leak
// into another, and the shared NF must accumulate the identical state
// either way.

// Per-chain service ports of the fixed oracle topology.
const (
	topoWebPort  = 80
	topoVoipPort = 5060
	topoBulkPort = 9000
)

// topoOracleSpec is the fixed topology every topo schedule runs.
func topoOracleSpec() *topo.Spec {
	return &topo.Spec{
		Name: "oracle",
		Chains: []topo.ChainSpec{
			{Name: "web", Weight: 2, NFs: []chainspec.NFSpec{
				{Type: "ipfilter", ACLSize: 100},
				{Type: "monitor", Name: "mon"},
				{Type: "snort", Name: "ids"},
			}},
			{Name: "voip", NFs: []chainspec.NFSpec{
				{Type: "gateway", Name: "voip-gw", NextHopMAC: "02:00:00:00:00:01",
					VoicePorts: []uint16{topoVoipPort}},
				{Type: "monitor", Name: "mon"},
			}},
			{Name: "bulk", NFs: []chainspec.NFSpec{
				{Type: "dos"},
				{Type: "ipfilter", ACLSize: 50},
				{Type: "monitor", Name: "mon"},
			}},
		},
		Policies: []topo.PolicySpec{
			{Chain: "voip", Tenant: 2, DstPortMin: topoVoipPort},
			{Chain: "bulk", Tenant: 3, DstPortMin: topoBulkPort},
			{Chain: "web", Tenant: 1, DstPortMin: topoWebPort},
		},
		// Tenant 2's quotas are deliberately tight so admission denials
		// actually fire under the oracle — proving they are
		// verdict-neutral, not just plausible.
		Tenants: []topo.TenantSpec{
			{ID: 1, RuleQuota: 64, EventCap: 128},
			{ID: 2, RuleQuota: 4, EventCap: 8},
			{ID: 3},
		},
	}
}

// topoTrace builds the schedule's merged three-service trace: one
// sub-trace per chain port, interleaved round-robin (each sub-trace's
// internal arrival order — hence per-flow order — is preserved).
func topoTrace(seed int64, flows int) ([]*packet.Packet, error) {
	per := flows/3 + 1
	var streams [][]*packet.Packet
	for i, port := range []uint16{topoWebPort, topoVoipPort, topoBulkPort} {
		tr, err := trace.Generate(trace.Config{
			Seed: seed + int64(i), Flows: per,
			AlertFraction: 0.15, LogFraction: 0.15,
			DstPort:    port,
			Interleave: true,
		})
		if err != nil {
			return nil, err
		}
		streams = append(streams, tr.Packets())
	}
	var out []*packet.Packet
	for k := 0; ; k++ {
		emitted := false
		for _, s := range streams {
			if k < len(s) {
				out = append(out, s[k])
				emitted = true
			}
		}
		if !emitted {
			return out, nil
		}
	}
}

// topoSystem is the oracle topology: per-chain engines behind the
// policy classifier, sharing NF instances by name.
type topoSystem struct {
	opts    core.Options
	target  int
	batch   int
	tamper  func(pkt *packet.Packet, chain int) int
	t       *topo.Topology
	batches []*core.Batch
	retired core.Stats
}

// newTopoSystem builds the oracle topology; reconfigurations go to the
// target chain. cfg supplies the vector size and the route tamper; the
// reference passes the zero config and runs one-packet vectors.
func newTopoSystem(opts core.Options, target int, cfg OracleConfig) (*topoSystem, error) {
	s := &topoSystem{opts: opts, target: target, batch: max(cfg.Batch, 1), tamper: cfg.TamperRoute}
	t, err := s.build()
	if err != nil {
		return nil, err
	}
	s.t, s.batches = t, make([]*core.Batch, t.NumChains())
	return s, nil
}

func (s *topoSystem) build() (*topo.Topology, error) {
	t, err := topo.Build(topoOracleSpec(), topo.BuildConfig{Options: s.opts})
	if err != nil {
		return nil, err
	}
	t.TamperRoute = s.tamper
	return t, nil
}

// process runs one same-chain vector: vectors are clipped at chain
// boundaries, so one engine runs each.
func (s *topoSystem) process(pkts []*packet.Packet, emit emitFunc) (int, error) {
	chain := s.t.Route(pkts[0])
	eng := s.t.Engine(chain)
	end := 1
	for end < len(pkts) && s.t.Route(pkts[end]) == chain {
		end++
	}
	if s.batches[chain] == nil {
		s.batches[chain] = core.NewBatch(s.batch)
	}
	results, err := eng.ProcessBatch(pkts[:end], s.batches[chain])
	if err != nil {
		return 0, err
	}
	for k, r := range results {
		if !emit(k, r, chain) {
			break
		}
	}
	return end, nil
}

func (s *topoSystem) reconfigure(plan core.ChainPlan) error {
	return s.t.Engine(s.target).Reconfigure(plan)
}

// crash kills the whole topology: every chain engine is checkpointed
// at the kill point, the topology (shared NFs included) is rebuilt from
// the spec, surviving reconfigurations replay onto the target chain,
// and RestoreAll rehydrates each engine.
func (s *topoSystem) crash(applied []planMaker) error {
	cps, err := s.t.CheckpointAll()
	if err != nil {
		return fmt.Errorf("crash checkpoint: %w", err)
	}
	for i := 0; i < s.t.NumChains(); i++ {
		s.retired.Add(s.t.Engine(i).Stats())
	}
	t, err := s.build()
	if err != nil {
		return err
	}
	if err := replayPlans(s.opts.Faults, applied, t.Engine(s.target).Reconfigure); err != nil {
		return err
	}
	if err := t.RestoreAll(cps); err != nil {
		return fmt.Errorf("crash restore: %w", err)
	}
	s.t = t
	return nil
}

func (s *topoSystem) chainNames() []string { return s.t.Engine(s.target).ChainNames() }

// nfs lists the topology's own NF instances, each shared one once;
// NFs a reconfiguration inserted are not in its registry.
func (s *topoSystem) nfs() []core.NF {
	var out []core.NF
	seen := make(map[string]bool)
	for i := 0; i < s.t.NumChains(); i++ {
		for _, name := range s.t.Engine(i).ChainNames() {
			if nf := s.t.NF(name); nf != nil && !seen[name] {
				seen[name] = true
				out = append(out, nf)
			}
		}
	}
	return out
}

func (s *topoSystem) stats() core.Stats {
	st := s.retired
	for i := 0; i < s.t.NumChains(); i++ {
		st.Add(s.t.Engine(i).Stats())
	}
	return st
}
