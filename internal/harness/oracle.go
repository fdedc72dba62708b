package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/mazunat"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// The differential equivalence oracle generalizes the paper's three
// hand-written §VII-C case studies into a property checked under
// thousands of randomized fault schedules: every trace runs twice —
// through a pure slow-path reference (the unmodified chain, which is
// correct by definition) and through full SpeedyBox with a seeded fault
// injector attacking its control plane — and every packet must leave
// both sides on the same chain, with the identical verdict, identical
// drop state and identical rewritten bytes, and every state-bearing NF
// must hold the identical observable state at the end of the trace.
// One schedule runner drives all three deployments (System): a single
// engine, a multi-chain topology and an engine cluster. Backend flaps
// are environmental (the pool genuinely changed), so the injector's
// deterministic FlapPlan is applied to both sides at the same packet
// indices.

// System selects the deployment the oracle drives.
type System int

const (
	// SystemEngine runs one service chain on one engine, against a
	// pure slow-path engine over the same chain.
	SystemEngine System = iota
	// SystemTopology runs a fixed three-chain, three-tenant topology
	// (shared monitor, per-chain policies, tight tenant quotas) against
	// a pure slow-path topology built from the same spec.
	SystemTopology
	// SystemCluster runs an engine fleet that scales 1→2→4→3 at seeded
	// mid-trace packet indices, live-migrating every reassigned flow at
	// each step, against a static pure slow-path engine. Injected
	// fault.KindMigrationAbort decisions roll whole rebalances back,
	// which must be verdict-invisible too.
	SystemCluster
)

// OracleConfig configures a differential-oracle run.
type OracleConfig struct {
	// Seed derives every schedule's trace and fault seeds; equal seeds
	// reproduce every divergence exactly.
	Seed int64
	// Schedules is how many randomized fault schedules to run
	// (default 200; CI runs 200, the acceptance bar is 1000).
	Schedules int
	// Flows is the per-schedule trace size (default 24).
	Flows int
	// System picks the deployment under test (default SystemEngine).
	// Batch, Reconfigs and Crashes compose with every system.
	System System
	// Chain picks the service chain of the engine and cluster systems:
	// 1 or 2 (§VII-B3), or 3 for the stateless chain; 0 alternates per
	// schedule (the cluster cycles through all three).
	Chain int
	// Batch is the fast side's vector size; <= 1 means one-packet
	// vectors. The reference always runs one-packet vectors (its
	// correctness is definitional), so Batch > 1 proves longer vectors
	// bit-identical to per-packet execution under the same fault
	// schedules. Vectors are clipped at every scheduled event so each
	// packet of a vector observes the same state as its reference twin.
	Batch int
	// Rates overrides the per-kind injection rates; nil selects a
	// uniform moderate-chaos default across every fault kind.
	Rates map[fault.Kind]float64
	// TamperRule, when set, corrupts the flow's consolidated rule
	// after each fast-engine packet. Test-only: it exists to prove the
	// oracle has teeth — a deliberately broken consolidation must be
	// caught as a divergence. SystemEngine only.
	TamperRule func(*mat.GlobalRule)
	// Reconfigs is how many live chain reconfigurations to apply per
	// schedule, at deterministic mid-trace offsets derived from the
	// schedule seed. Each plan (insert a gateway — a semantically
	// visible MAC rewrite —, insert a pass-all filter, remove a
	// previous insertion, reorder) is applied to the fast side and to
	// the reference at the same packet index; a fault-aborted plan is
	// skipped on both, which is exactly the rollback contract under
	// test. A topology reconfigures one chain per schedule, rotating
	// across schedules; a cluster reconfigures fleet-wide. 0 disables
	// reconfiguration.
	Reconfigs int
	// TamperReconfig, when set, runs after each successful fast-engine
	// reconfiguration with a copy of the rules installed before it.
	// Test-only teeth: re-installing those pre-reconfiguration rules
	// under the new epoch models a broken invalidation and must be
	// caught as a divergence. SystemEngine only.
	TamperReconfig func(eng *core.Engine, pre []*mat.GlobalRule)
	// TamperRoute, when set, overrides the fast topology's classifier
	// (receiving each packet and the honest chain index). Test-only
	// teeth: routing a flow down the wrong chain must be caught as a
	// divergence. SystemTopology only.
	TamperRoute func(pkt *packet.Packet, chain int) int
	// TamperMigration, when set, corrupts each decoded migration record
	// before the new owner adopts it. Test-only teeth: a migration that
	// delivers the wrong rule must be caught as a divergence.
	// SystemCluster only.
	TamperMigration func(*wal.MigrationRecord)
	// Crashes > 0 kills and restores the fast side at up to that many
	// (capped at 4) seeded packet indices per schedule, from exactly
	// what a process restart would find on disk: a crash-consistent
	// checkpoint taken at the kill point plus the durable WAL prefix.
	// An engine or a topology is discarded whole and rebuilt (replaying
	// any surviving reconfigurations); a cluster replaces one instance.
	// The reference runs uninterrupted, so any state the restore loses
	// or invents shows up as a divergence.
	Crashes int
}

// OracleDivergence pinpoints one fast/slow-path disagreement.
type OracleDivergence struct {
	// Schedule and Seed identify the failing schedule (re-run with
	// this seed to reproduce).
	Schedule int
	Seed     int64
	// Packet is the trace index of the diverging packet, -1 for
	// end-of-trace state divergences.
	Packet int
	// Detail describes what disagreed.
	Detail string
}

// OracleResult aggregates a differential-oracle run.
type OracleResult struct {
	Schedules int
	Packets   int
	// Injected totals the faults fired across all schedules.
	Injected uint64
	// Fallbacks, Degraded and Recoveries total the fast engines'
	// degradation counters, proving the graceful-degradation machinery
	// actually engaged while equivalence held.
	Fallbacks  uint64
	Degraded   uint64
	Recoveries uint64
	// Reconfigs and ReconfigAborts total the live chain changes applied
	// and the fault-aborted (cleanly rolled back) ones.
	Reconfigs      uint64
	ReconfigAborts uint64
	// CrashRestores totals the fast-engine kill/restore cycles survived.
	CrashRestores uint64
	// Migrations, MigrationAborts and Rebalances total the cluster
	// oracle's live flow moves, rolled-back rebalances and completed
	// rebalances (zero outside SystemCluster).
	Migrations      uint64
	MigrationAborts uint64
	Rebalances      uint64
	// Divergences lists every disagreement (empty on a pass; capped —
	// a broken engine would otherwise produce one per packet).
	Divergences []OracleDivergence
}

// maxDivergences caps how many divergences a run collects before
// aborting early.
const maxDivergences = 16

// Passed reports whether every packet of every schedule agreed.
func (r *OracleResult) Passed() bool {
	return r.Schedules > 0 && len(r.Divergences) == 0
}

// Format renders the oracle outcome.
func (r *OracleResult) Format() string {
	t := &tableWriter{}
	t.title("Differential fast/slow-path equivalence oracle (randomized fault schedules)")
	t.row("schedules", "packets", "faults injected", "fallbacks", "degraded pkts", "recoveries", "reconfigs", "aborted", "crashes", "migrations", "mig aborts", "divergences", "result")
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	t.row(fmt.Sprintf("%d", r.Schedules), fmt.Sprintf("%d", r.Packets),
		fmt.Sprintf("%d", r.Injected), fmt.Sprintf("%d", r.Fallbacks),
		fmt.Sprintf("%d", r.Degraded), fmt.Sprintf("%d", r.Recoveries),
		fmt.Sprintf("%d", r.Reconfigs), fmt.Sprintf("%d", r.ReconfigAborts),
		fmt.Sprintf("%d", r.CrashRestores),
		fmt.Sprintf("%d", r.Migrations), fmt.Sprintf("%d", r.MigrationAborts),
		fmt.Sprintf("%d", len(r.Divergences)), status)
	out := t.String()
	for _, d := range r.Divergences {
		out += fmt.Sprintf("  divergence: schedule %d (seed %d) packet %d: %s\n",
			d.Schedule, d.Seed, d.Packet, d.Detail)
	}
	return out
}

// RunOracle executes the differential equivalence oracle.
func RunOracle(cfg OracleConfig) (*OracleResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Schedules == 0 {
		cfg.Schedules = 200
	}
	if cfg.Flows == 0 {
		cfg.Flows = 24
	}
	rates := cfg.Rates
	if rates == nil {
		rates = fault.UniformRates(0.08)
	}
	res := &OracleResult{}
	for s := 0; s < cfg.Schedules; s++ {
		seed := cfg.Seed + int64(s)*7919
		if err := runSchedule(cfg, s, seed, rates, res); err != nil {
			return nil, fmt.Errorf("harness: oracle schedule %d (seed %d): %w", s, seed, err)
		}
		res.Schedules++
		if len(res.Divergences) >= maxDivergences {
			break
		}
	}
	return res, nil
}

// validate rejects settings the chosen system would silently ignore.
func (cfg *OracleConfig) validate() error {
	switch {
	case cfg.System < SystemEngine || cfg.System > SystemCluster:
		return fmt.Errorf("harness: oracle: unknown system %d", cfg.System)
	case (cfg.TamperRule != nil || cfg.TamperReconfig != nil) && cfg.System != SystemEngine:
		return errors.New("harness: oracle: TamperRule and TamperReconfig need SystemEngine")
	case cfg.TamperRoute != nil && cfg.System != SystemTopology:
		return errors.New("harness: oracle: TamperRoute needs SystemTopology")
	case cfg.TamperMigration != nil && cfg.System != SystemCluster:
		return errors.New("harness: oracle: TamperMigration needs SystemCluster")
	}
	return nil
}

// system is one side of a schedule: an engine, a topology or a
// cluster. The reference side is an engine or a topology built with
// core.BaselineOptions(), driven one packet at a time.
type system interface {
	// process runs a non-empty prefix of pkts as one vector and passes
	// each packet's offset, result and
	// chain index (-1 when the system does not route) to emit, in
	// order, stopping when emit returns false. It returns the prefix
	// length.
	process(pkts []*packet.Packet, emit emitFunc) (int, error)
	// reconfigure applies one live chain change.
	reconfigure(plan core.ChainPlan) error
	// crash kills and restores the system from its checkpoint and
	// durable WAL; applied rebuilds every plan committed before it.
	crash(applied []planMaker) error
	// chainNames lists the NF names the reconfiguration plans target.
	chainNames() []string
	// nfs lists the NF instances the end-of-trace comparison reads.
	nfs() []core.NF
	// stats sums the counters of every engine the system has run,
	// including ones a crash retired.
	stats() core.Stats
}

// emitFunc receives one packet's outcome from system.process.
type emitFunc func(k int, res *core.PacketResult, chain int) bool

// event is one scheduled environmental transition.
type event struct {
	at    int
	apply func() error
}

// runSchedule replays one fault schedule through the fast system and
// its reference in lockstep.
func runSchedule(cfg OracleConfig, sched int, seed int64, rates map[fault.Kind]float64, res *OracleResult) error {
	inj := fault.New(fault.Config{Seed: seed, Rates: rates})
	pkts, ref, fast, err := newSystems(cfg, sched, seed, inj)
	if err != nil {
		return err
	}
	fleet, _ := fast.(*clusterSystem)
	if fleet != nil {
		defer fleet.cl.Close()
	}
	n := len(pkts)
	refPkts, fastPkts := cloneAll(pkts), cloneAll(pkts)
	diverge := func(pkt int, format string, args ...any) {
		res.Divergences = append(res.Divergences, OracleDivergence{
			Schedule: sched, Seed: seed, Packet: pkt,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	var flaps []fault.Flap
	if maglevIn(ref.nfs()) != nil {
		flaps = inj.FlapPlan(n, 3)
	}
	var crashes []fault.Crash
	if cfg.Crashes > 0 {
		// CrashPlan scales its count with the KindCrashRestore rate
		// (count = int(rate*4)+1, capped at 4), so (c-1)/4 plus a nudge
		// yields exactly min(c, 4) planned crashes.
		inj.SetRate(fault.KindCrashRestore, float64(cfg.Crashes-1)/4+0.05)
		crashes = inj.CrashPlan(n)
	}

	// Every event kind goes into one list; the stable sort keeps the
	// order scale → crash → flap → reconfigure at a shared index.
	var events []event
	if fleet != nil {
		for _, ev := range buildScaleEvents(seed, n) {
			events = append(events, event{ev.at, func() error { return fleet.scale(ev.target) }})
		}
	}
	var applied []planMaker
	for _, c := range crashes {
		events = append(events, event{c.At, func() error {
			if err := fast.crash(applied); err != nil {
				return err
			}
			res.CrashRestores++
			return nil
		}})
	}
	for _, f := range flaps {
		events = append(events, event{f.At, func() error {
			for _, s := range [...]system{ref, fast} {
				lb := maglevIn(s.nfs())
				var err error
				if f.Restore {
					err = lb.RestoreBackend(f.Backend)
				} else {
					err = lb.FailBackend(f.Backend)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}})
	}
	if cfg.Reconfigs > 0 {
		for _, ev := range buildReconfigEvents(seed, cfg.Reconfigs, n, ref.chainNames()) {
			events = append(events, event{ev.at, func() error {
				plan, err := ev.mk()
				if err != nil {
					return err
				}
				if ferr := fast.reconfigure(plan); ferr != nil {
					// An aborted (or, after an earlier abort, validation-
					// rejected) plan left the fast side untouched — that
					// is the rollback contract — so the reference skips it
					// too and the two stay in lockstep.
					if errors.Is(ferr, core.ErrReconfigAborted) {
						res.ReconfigAborts++
					}
					return nil
				}
				refPlan, err := ev.mk()
				if err != nil {
					return err
				}
				if rerr := ref.reconfigure(refPlan); rerr != nil {
					return fmt.Errorf("reference reconfigure (%s): %v", refPlan, rerr)
				}
				res.Reconfigs++
				applied = append(applied, ev.mk)
				return nil
			}})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].at < events[b].at })

	var (
		refRes   *core.PacketResult
		refChain int
		refErr   error
		fids     []flow.FID
	)
	captureRef := func(_ int, r *core.PacketResult, chain int) bool {
		refRes, refChain = r, chain
		return true
	}
	// compare runs packet k through the reference and checks the fast
	// side's outcome for it.
	compare := func(k int, got *core.PacketResult, chain int) bool {
		if _, refErr = ref.process(refPkts[k:k+1], captureRef); refErr != nil {
			return false
		}
		res.Packets++
		fids = append(fids, refRes.FID)
		rp, fp := refPkts[k], fastPkts[k]
		switch {
		case refChain != chain:
			diverge(k, "route: ref chain %d, fast chain %d", refChain, chain)
		case refRes.Verdict != got.Verdict:
			diverge(k, "verdict: ref %v, fast %v", refRes.Verdict, got.Verdict)
		case rp.Dropped() != fp.Dropped():
			diverge(k, "dropped: ref %v, fast %v", rp.Dropped(), fp.Dropped())
		case !rp.Dropped() && !bytes.Equal(rp.Data(), fp.Data()):
			diverge(k, "rewritten bytes differ (%d vs %d bytes)", len(rp.Data()), len(fp.Data()))
		default:
			return true
		}
		return false
	}

	next := 0
	for i := 0; i < n; {
		for ; next < len(events) && events[next].at <= i; next++ {
			if err := events[next].apply(); err != nil {
				return fmt.Errorf("packet %d: %w", i, err)
			}
		}
		// One vector clipped at the next event: every environmental
		// transition must interleave with the packet stream identically
		// on both sides.
		end := min(i+max(cfg.Batch, 1), n)
		if next < len(events) && events[next].at < end {
			end = events[next].at
		}
		agreed := true
		used, err := fast.process(fastPkts[i:end], func(off int, r *core.PacketResult, chain int) bool {
			agreed = compare(i+off, r, chain)
			return agreed
		})
		if err != nil {
			return fmt.Errorf("packet %d: fast: %w", i, err)
		}
		if refErr != nil {
			return fmt.Errorf("packet %d: reference: %w", i, refErr)
		}
		if !agreed {
			break
		}
		i += used
	}

	compareNFState(ref.nfs(), fast.nfs(), fids, diverge)

	st := fast.stats()
	res.Injected += inj.InjectedTotal()
	res.Fallbacks += st.SlowPathFallbacks
	res.Degraded += st.DegradedPackets
	res.Recoveries += st.FaultRecoveries
	if fleet != nil {
		res.Migrations += fleet.cl.Migrations()
		res.MigrationAborts += fleet.cl.Aborts()
		res.Rebalances += fleet.cl.Rebalances()
	}
	return nil
}

// compareNFState checks, at the end of a trace, that every
// state-bearing NF of the reference holds the same observable state as
// its same-named fast twin: the consolidated fast path must have driven
// every state function exactly as the chain did. Maglev's reroute
// counter is left out: it counts only event-path reroutes, while the
// reference re-picks inside Process without counting.
func compareNFState(ref, fast []core.NF, fids []flow.FID, diverge func(pkt int, format string, args ...any)) {
	twins := make(map[string]core.NF, len(fast))
	for _, nf := range fast {
		twins[nf.Name()] = nf
	}
	for _, r := range ref {
		name, f := r.Name(), twins[r.Name()]
		if reflect.TypeOf(f) != reflect.TypeOf(r) {
			diverge(-1, "nf %s: ref %T, fast %T", name, r, f)
			continue
		}
		switch r := r.(type) {
		case *monitor.Monitor:
			f := f.(*monitor.Monitor)
			if rc, fc := r.Totals(), f.Totals(); rc != fc {
				diverge(-1, "%s counters: ref %+v, fast %+v", name, rc, fc)
			}
			if rn, fn := r.Flows(), f.Flows(); rn != fn {
				diverge(-1, "%s tracked flows: ref %d, fast %d", name, rn, fn)
			}
		case *snort.Snort:
			rl, fl := r.Logs(), f.(*snort.Snort).Logs()
			if len(rl) != len(fl) {
				diverge(-1, "%s logs: ref %d entries, fast %d", name, len(rl), len(fl))
				break
			}
			for j := range rl {
				if rl[j].RuleID != fl[j].RuleID || rl[j].Type != fl[j].Type {
					diverge(-1, "%s log %d: ref (%d,%v), fast (%d,%v)",
						name, j, rl[j].RuleID, rl[j].Type, fl[j].RuleID, fl[j].Type)
					break
				}
			}
		case *maglev.Maglev:
			f := f.(*maglev.Maglev)
			// The lookup table is a pure function of the healthy set.
			if !slices.Equal(r.Table(), f.Table()) {
				diverge(-1, "%s backend health differs", name)
			}
			for _, fid := range fids {
				rb, rok := r.BackendOf(fid)
				fb, fok := f.BackendOf(fid)
				if rb != fb || rok != fok {
					diverge(-1, "%s backend of %v: ref %q, fast %q", name, fid, rb.Name, fb.Name)
					break
				}
			}
		case *mazunat.NAT:
			if rm, fm := r.Mappings(), f.(*mazunat.NAT).Mappings(); rm != fm {
				diverge(-1, "%s mappings: ref %d, fast %d", name, rm, fm)
			}
		}
	}
}

// maglevIn returns the chain's load balancer, nil when it has none.
func maglevIn(nfs []core.NF) *maglev.Maglev {
	for _, nf := range nfs {
		if lb, ok := nf.(*maglev.Maglev); ok {
			return lb
		}
	}
	return nil
}

// cloneAll deep-copies a packet slice so the reference and the fast
// side each consume an independent stream.
func cloneAll(pkts []*packet.Packet) []*packet.Packet {
	out := make([]*packet.Packet, len(pkts))
	for i, p := range pkts {
		out[i] = p.Clone()
	}
	return out
}

// buildOracleChain builds a fresh instance of one of the oracle's
// chains: 1 and 2 are the paper's (§VII-B3), 3 the stateless one.
func buildOracleChain(chain int) ([]core.NF, error) {
	switch chain {
	case 1:
		return Chain1()
	case 3:
		return ChainStateless()
	default:
		return Chain2()
	}
}

// reconfigEvent is one scheduled live chain change. mk builds a fresh
// plan on every call — a new NF instance each time — so the reference
// and the fast engine never share an inserted NF's state.
type reconfigEvent struct {
	at int
	mk planMaker
}

// planMaker builds one chain plan.
type planMaker func() (core.ChainPlan, error)

// buildReconfigEvents derives n deterministic chain changes from the
// schedule seed, at sorted offsets inside the middle 80% of the trace.
// Operations cycle through inserting a gateway (a semantically visible
// MAC rewrite), inserting a pass-all filter, removing the oldest
// surviving insertion (or inserting an extra monitor when none
// remains), and reordering a random NF. Plan positions track the chain
// as if every plan lands; when an earlier plan is fault-aborted a later
// one may be rejected by validation — on both sides identically, which
// the schedule runner treats as a shared no-op.
func buildReconfigEvents(seed int64, n, pkts int, chain []string) []reconfigEvent {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	names := append([]string(nil), chain...)
	var inserted []string
	lo, hi := pkts/10, pkts*9/10
	if hi <= lo {
		hi = lo + 1
	}
	offsets := make([]int, n)
	for k := range offsets {
		offsets[k] = lo + rng.Intn(hi-lo)
	}
	sort.Ints(offsets)
	events := make([]reconfigEvent, 0, n)
	// insert schedules a fresh NF from build at a random position.
	insert := func(at int, name string, build func() (core.NF, error)) {
		pos := rng.Intn(len(names) + 1)
		events = append(events, reconfigEvent{at: at, mk: func() (core.ChainPlan, error) {
			nf, err := build()
			if err != nil {
				return core.ChainPlan{}, err
			}
			return core.ChainPlan{Op: core.OpInsert, Pos: pos, NF: nf}, nil
		}})
		names = slices.Insert(names, pos, name)
		inserted = append(inserted, name)
	}
	without := func(name string) []string {
		return slices.DeleteFunc(names, func(n string) bool { return n == name })
	}
	for k, at := range offsets {
		switch {
		case k%4 == 0:
			name := fmt.Sprintf("gw%d", k)
			insert(at, name, func() (core.NF, error) {
				return gateway.New(gateway.Config{Name: name, NextHopMAC: [6]byte{2, 0, 0, 0, 0, byte(k + 1)}})
			})
		case k%4 == 1:
			name := fmt.Sprintf("flt%d", k)
			insert(at, name, func() (core.NF, error) {
				return ipfilter.New(ipfilter.Config{Name: name, Rules: ipfilter.PadRules(nil, 50)})
			})
		case k%4 == 2 && len(inserted) > 0:
			name := inserted[0]
			inserted = inserted[1:]
			events = append(events, reconfigEvent{at: at, mk: func() (core.ChainPlan, error) {
				return core.ChainPlan{Op: core.OpRemove, Name: name}, nil
			}})
			names = without(name)
		case k%4 == 2:
			name := fmt.Sprintf("mon%d", k)
			insert(at, name, func() (core.NF, error) { return monitor.New(name) })
		default:
			name := names[rng.Intn(len(names))]
			pos := rng.Intn(len(names))
			events = append(events, reconfigEvent{at: at, mk: func() (core.ChainPlan, error) {
				return core.ChainPlan{Op: core.OpReorder, Name: name, Pos: pos}, nil
			}})
			names = slices.Insert(without(name), pos, name)
		}
	}
	return events
}
