package harness

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// newSystems builds one schedule's trace and its reference and fast
// systems of the configured kind.
func newSystems(cfg OracleConfig, sched int, seed int64, inj *fault.Injector) ([]*packet.Packet, system, system, error) {
	fastOpts := core.DefaultOptions()
	fastOpts.Faults = inj
	if cfg.System == SystemTopology {
		pkts, err := topoTrace(seed, cfg.Flows)
		if err != nil {
			return nil, nil, nil, err
		}
		// Reconfigurations target one chain per schedule, rotating
		// across schedules.
		target := sched % len(topoOracleSpec().Chains)
		ref, err := newTopoSystem(core.BaselineOptions(), target, OracleConfig{})
		if err != nil {
			return nil, nil, nil, err
		}
		fast, err := newTopoSystem(fastOpts, target, cfg)
		return pkts, ref, fast, err
	}
	chain := cfg.Chain
	if chain == 0 {
		chain = 1 + sched%2
		if cfg.System == SystemCluster {
			// Cycle in the stateless chain so rule-carrying migration
			// runs alongside the demotion path the monitor-bearing
			// chains force.
			chain = 1 + sched%3
		}
	}
	tr, err := trace.Generate(trace.Config{
		Seed: seed, Flows: cfg.Flows,
		AlertFraction: 0.15, LogFraction: 0.15,
		Interleave: true,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ref, err := newEngineSystem(chain, core.BaselineOptions(), OracleConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	var fast system
	if cfg.System == SystemCluster {
		fast, err = newClusterSystem(chain, fastOpts, cfg)
	} else {
		fast, err = newEngineSystem(chain, fastOpts, cfg)
	}
	return tr.Packets(), ref, fast, err
}

// engineSystem is one oracle chain on one engine.
type engineSystem struct {
	chain   int
	opts    core.Options
	chainNF []core.NF
	eng     *core.Engine
	batch   *core.Batch
	retired core.Stats

	tamperRule     func(*mat.GlobalRule)
	tamperReconfig func(eng *core.Engine, pre []*mat.GlobalRule)
}

// newEngineSystem builds the chain and its engine. cfg supplies the
// vector size, durability (Crashes) and tamper hooks; the reference
// passes the zero config and runs one-packet vectors.
func newEngineSystem(chain int, opts core.Options, cfg OracleConfig) (*engineSystem, error) {
	nfs, err := buildOracleChain(chain)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(nfs, opts)
	if err != nil {
		return nil, err
	}
	if cfg.Crashes > 0 {
		eng.AttachWAL(wal.NewWriter(wal.Options{}))
	}
	s := &engineSystem{
		chain: chain, opts: opts, chainNF: nfs, eng: eng,
		batch:      core.NewBatch(max(cfg.Batch, 1)),
		tamperRule: cfg.TamperRule, tamperReconfig: cfg.TamperReconfig,
	}
	return s, nil
}

func (s *engineSystem) process(pkts []*packet.Packet, emit emitFunc) (int, error) {
	results, err := s.eng.ProcessBatch(pkts, s.batch)
	if err != nil {
		return 0, err
	}
	for k, r := range results {
		if !emit(k, r, -1) {
			break
		}
		if s.tamperRule != nil {
			s.tamper(r.FID)
		}
	}
	return len(results), nil
}

// tamper corrupts the flow's consolidated rule. The vector has
// already run; tampering still poisons every later vector of the
// flow.
func (s *engineSystem) tamper(fid flow.FID) {
	r, ok := s.eng.Global().Lookup(fid)
	if !ok {
		return
	}
	broken := *r
	s.tamperRule(&broken)
	// Recompile so the tamper reaches the compiled action program the
	// data path executes — exactly as a genuinely broken Consolidate
	// would.
	broken.Compile()
	s.eng.Global().Install(&broken)
}

func (s *engineSystem) reconfigure(plan core.ChainPlan) error {
	var pre []*mat.GlobalRule
	if s.tamperReconfig != nil {
		s.eng.Global().ForEach(func(r *mat.GlobalRule) {
			cp := *r
			pre = append(pre, &cp)
		})
	}
	if err := s.eng.Reconfigure(plan); err != nil {
		return err
	}
	if s.tamperReconfig != nil {
		s.tamperReconfig(s.eng, pre)
	}
	return nil
}

// crash discards the engine and every NF instance, rebuilds the chain
// composition the checkpoint was taken under, and restores the fresh
// engine from the encoded checkpoint plus the durable WAL prefix.
func (s *engineSystem) crash(applied []planMaker) error {
	cp, err := s.eng.Checkpoint()
	if err != nil {
		return fmt.Errorf("crash checkpoint: %w", err)
	}
	blob := cp.Encode()
	durable := append([]byte(nil), s.eng.WAL().DurableBytes()...)
	s.retired.Add(s.eng.Stats())

	nfs, err := buildOracleChain(s.chain)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(nfs, s.opts)
	if err != nil {
		return err
	}
	if err := replayPlans(s.opts.Faults, applied, eng.Reconfigure); err != nil {
		return err
	}
	rcp, err := wal.DecodeCheckpoint(blob)
	if err != nil {
		return fmt.Errorf("crash checkpoint decode: %w", err)
	}
	if err := eng.Restore(rcp, durable); err != nil {
		return fmt.Errorf("crash restore: %w", err)
	}
	eng.AttachWAL(wal.NewWriter(wal.Options{}))
	s.chainNF, s.eng = nfs, eng
	return nil
}

func (s *engineSystem) chainNames() []string { return s.eng.ChainNames() }

func (s *engineSystem) nfs() []core.NF { return s.chainNF }

func (s *engineSystem) stats() core.Stats {
	st := s.retired
	st.Add(s.eng.Stats())
	return st
}

// replayPlans rebuilds a crashed system's chain composition by
// reapplying every reconfiguration that committed before the crash,
// with abort injection off: these plans already landed.
func replayPlans(inj *fault.Injector, applied []planMaker, reconfigure func(core.ChainPlan) error) error {
	abortRate := inj.Rate(fault.KindReconfigAbort)
	inj.SetRate(fault.KindReconfigAbort, 0)
	defer inj.SetRate(fault.KindReconfigAbort, abortRate)
	for _, mk := range applied {
		plan, err := mk()
		if err != nil {
			return err
		}
		if err := reconfigure(plan); err != nil {
			return fmt.Errorf("crash rebuild reconfigure (%s): %v", plan, err)
		}
	}
	return nil
}
