package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/fastpathnfv/speedybox/internal/cluster"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
)

// The cluster oracle extends the differential equivalence property to
// elastic scale-out: the reference is one static, pure slow-path
// engine that never rebalances, while the system under test is a
// cluster of SpeedyBox engines behind the consistent-hash steerer,
// scaling 1→2→4→3 at seeded mid-trace packet indices. Every scale
// step live-migrates the reassigned flows — flow entry, consolidated
// rule, ladder reset — through the serialized migration record, and
// the oracle demands that no packet anywhere near a cutover is
// dropped, reordered onto a stale owner, or processed to a different
// verdict or different rewritten bytes than the uninterrupted
// reference produced. Injected migration aborts must roll whole
// rebalances back with the same invisibility.

// ChainStateless builds a pure header-transform chain (IPFilter ->
// Gateway): no NF registers per-flow state functions, so every
// consolidated rule is a batch-free header program — exactly the
// rules that travel whole inside a migration record instead of
// demoting to re-record. The cluster oracle cycles it in alongside
// the paper's two chains so rule-carrying migration is exercised (and
// tamperable) as well as the demotion path the monitor-bearing chains
// force.
func ChainStateless() ([]core.NF, error) {
	fw, err := ipfilter.New(ipfilter.Config{
		Name:  "ipfilter",
		Rules: ipfilter.PadRules(nil, 100),
	})
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{
		Name:       "gateway",
		NextHopMAC: [6]byte{2, 0, 0, 0, 0, 0xfe},
	})
	if err != nil {
		return nil, err
	}
	return []core.NF{fw, gw}, nil
}

// clusterScaleTargets is the per-schedule scaling walk: out, further
// out, back in — exercising add-migration, spread-migration and
// drain-migration in one trace.
var clusterScaleTargets = [...]int{2, 4, 3}

// scaleEvent schedules one ScaleTo call at a trace index.
type scaleEvent struct {
	at     int
	target int
}

// buildScaleEvents derives the seeded scale offsets, sorted, inside
// the middle 80% of the trace.
func buildScaleEvents(seed int64, pkts int) []scaleEvent {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
	lo, hi := pkts/10, pkts*9/10
	if hi <= lo {
		hi = lo + 1
	}
	offsets := make([]int, len(clusterScaleTargets))
	for i := range offsets {
		offsets[i] = lo + rng.Intn(hi-lo)
	}
	sort.Ints(offsets)
	events := make([]scaleEvent, len(offsets))
	for i, at := range offsets {
		events[i] = scaleEvent{at: at, target: clusterScaleTargets[i]}
	}
	return events
}

// clusterSystem is an engine fleet behind the consistent-hash steerer,
// sharing one set of chain NF instances.
type clusterSystem struct {
	cl      *cluster.Cluster
	chainNF []core.NF
	batch   int
	pb      *platform.Batch
	crashed int
}

// newClusterSystem starts a one-instance cluster over a fresh chain.
func newClusterSystem(chain int, opts core.Options, cfg OracleConfig) (*clusterSystem, error) {
	nfs, err := buildOracleChain(chain)
	if err != nil {
		return nil, err
	}
	if cfg.Rates == nil {
		// The abort injector is consulted once per *flow that must
		// move*, so the schedule-default 8% rate would abort nearly
		// every multi-flow rebalance and the oracle would never watch
		// a migration commit. A low per-flow rate makes most
		// rebalances land while still rolling a healthy minority back.
		opts.Faults.SetRate(fault.KindMigrationAbort, 0.02)
	}
	cl, err := cluster.New(cluster.Config{
		Chain:     nfs,
		Options:   opts,
		Instances: 1,
		Durable:   cfg.Crashes > 0,
	})
	if err != nil {
		return nil, err
	}
	cl.TamperMigration = cfg.TamperMigration
	batch := max(cfg.Batch, 1)
	return &clusterSystem{cl: cl, chainNF: nfs, batch: batch, pb: platform.NewBatch(batch)}, nil
}

// process runs a vector through the cluster's run-splitting path.
func (s *clusterSystem) process(pkts []*packet.Packet, emit emitFunc) (int, error) {
	err := s.cl.ProcessRuns(pkts, s.batch, s.pb, func(off int, ms []platform.Measurement) error {
		for j, m := range ms {
			if !emit(off+j, m.Result, -1) {
				return errStopRun
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopRun) {
		return 0, err
	}
	return len(pkts), nil
}

// errStopRun ends a batched cluster run once emit has stopped it.
var errStopRun = errors.New("oracle: run stopped")

// reconfigure applies the plan fleet-wide at a common packet boundary.
// An aborted plan leaves every instance untouched: instance 0 decides
// before the rest apply.
func (s *clusterSystem) reconfigure(plan core.ChainPlan) error { return s.cl.Reconfigure(plan) }

// crash kills one instance, rotating through the fleet, and restores
// it from checkpoint plus WAL. The crashed engine's counters survive
// inside cl.Stats(), and the cluster replays its own plan record.
func (s *clusterSystem) crash([]planMaker) error {
	idx := s.crashed % s.cl.Len()
	s.crashed++
	if err := s.cl.CrashInstance(idx); err != nil {
		return fmt.Errorf("crash instance %d: %w", idx, err)
	}
	return nil
}

// scale resizes the fleet. A rebalance that an injected abort rolls
// back leaves the cluster at a consistent intermediate size, and the
// packet stream must not be able to tell.
func (s *clusterSystem) scale(target int) error {
	if err := s.cl.ScaleTo(target); err != nil && !errors.Is(err, cluster.ErrMigrationAborted) {
		return fmt.Errorf("scale to %d: %w", target, err)
	}
	return nil
}

func (s *clusterSystem) chainNames() []string { return s.cl.Engine(0).ChainNames() }

func (s *clusterSystem) nfs() []core.NF { return s.chainNF }

func (s *clusterSystem) stats() core.Stats { return s.cl.Stats() }
