package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// TestOracleEquivalenceUnderFaults is the CI-sized differential run:
// dozens of randomized fault schedules across both real-world chains,
// zero divergences allowed, and the degradation machinery must
// demonstrably engage (a run that injects nothing proves nothing).
func TestOracleEquivalenceUnderFaults(t *testing.T) {
	res := mustPass(t, OracleConfig{Seed: 1, Schedules: short(60, 10)})
	if res.Injected == 0 {
		t.Error("no faults injected; the run was vacuous")
	}
	if res.Fallbacks == 0 {
		t.Error("no slow-path fallbacks; degradation never engaged")
	}
	if res.Recoveries == 0 {
		t.Error("no recoveries; the retry ladder never reinstalled a rule")
	}
	if !strings.Contains(res.Format(), "PASS") {
		t.Errorf("Format() missing PASS:\n%s", res.Format())
	}
}

// TestOracleBatchEquivalence runs the oracle with the fast engine in
// 32-packet vector mode: the batched data path must stay bit-identical
// to the scalar reference under the same fault schedules, and the
// seeded runs must also agree packet-for-packet with a scalar-fast-
// engine oracle run (batching changes no observable outcome).
func TestOracleBatchEquivalence(t *testing.T) {
	schedules := short(40, 8)
	batched := mustPass(t, OracleConfig{Seed: 1, Schedules: schedules, Batch: 32})
	if batched.Injected == 0 || batched.Fallbacks == 0 {
		t.Error("vacuous batched run: no faults or no fallbacks")
	}
	scalar := mustPass(t, OracleConfig{Seed: 1, Schedules: schedules})
	if batched.Packets != scalar.Packets || batched.Injected != scalar.Injected ||
		batched.Fallbacks != scalar.Fallbacks || batched.Degraded != scalar.Degraded ||
		batched.Recoveries != scalar.Recoveries {
		t.Errorf("batched and scalar oracle runs disagree:\nbatched: %+v\nscalar:  %+v",
			batched, scalar)
	}
}

// TestOracleBatchCatchesTamper proves batch mode keeps the oracle's
// teeth: the flipped-verdict tamper must still be reported.
func TestOracleBatchCatchesTamper(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 2, Chain: 1, Batch: 32,
		Rates:      fault.UniformRates(0),
		TamperRule: func(r *mat.GlobalRule) { r.Drop = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("batched oracle passed a deliberately broken consolidation")
	}
}

// TestOracleCatchesBrokenConsolidation proves the oracle has teeth: a
// deliberately corrupted consolidated rule (verdict flipped to drop)
// must be reported as a divergence.
func TestOracleCatchesBrokenConsolidation(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 2, Chain: 1,
		Rates:      fault.UniformRates(0), // isolate the tamper
		TamperRule: func(r *mat.GlobalRule) { r.Drop = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("oracle passed a deliberately broken consolidation")
	}
	d := res.Divergences[0]
	if d.Seed == 0 || d.Packet < 0 {
		t.Errorf("divergence not pinpointed: %+v", d)
	}
	if !strings.Contains(res.Format(), "FAIL") {
		t.Errorf("Format() missing FAIL:\n%s", res.Format())
	}
}

// TestOracleCatchesCorruptedRewrite is a second tamper shape: silently
// corrupting the merged header rewrites must surface as a byte-level
// divergence, not as a drop mismatch.
func TestOracleCatchesCorruptedRewrite(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 3, Schedules: 2, Chain: 1,
		Rates: fault.UniformRates(0),
		TamperRule: func(r *mat.GlobalRule) {
			for i := range r.Modifies {
				for j := range r.Modifies[i].Value {
					r.Modifies[i].Value[j] ^= 0xff
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("oracle passed a corrupted header rewrite")
	}
}

// TestOracleReconfigEquivalence adds live chain reconfigurations to the
// fault schedules: gateways, filters and monitors are inserted, removed
// and reordered mid-trace on both engines at the same packet indices,
// in scalar and in 32-packet vector mode, and every packet must still
// agree. Fault-aborted plans are skipped on both engines — the rollback
// contract — and at least some plans must actually land for the run to
// count.
func TestOracleReconfigEquivalence(t *testing.T) {
	for _, batch := range []int{0, 32} {
		res := mustPass(t, OracleConfig{Seed: 1, Schedules: short(30, 6), Reconfigs: 3, Batch: batch})
		if res.Reconfigs == 0 {
			t.Errorf("batch=%d: no reconfigurations applied; the run was vacuous", batch)
		}
		if res.Injected == 0 || res.Fallbacks == 0 {
			t.Errorf("batch=%d: vacuous run: no faults or no fallbacks", batch)
		}
	}
}

// TestOracleCatchesBrokenReconfig proves the reconfiguration oracle has
// teeth: resurrecting the pre-reconfiguration rules under the new epoch
// (a deliberately broken invalidation — exactly the bug the epoch
// machinery exists to prevent) must surface as a divergence, since the
// fast path then serves the retired chain's semantics while the
// reference runs the new chain.
func TestOracleCatchesBrokenReconfig(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 4, Chain: 1, Reconfigs: 2,
		Rates: fault.UniformRates(0), // isolate the tamper
		TamperReconfig: func(eng *core.Engine, pre []*mat.GlobalRule) {
			cur := eng.Global().Epoch()
			for _, r := range pre {
				broken := *r
				broken.Epoch = cur
				eng.Global().Install(&broken)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("oracle passed a deliberately broken epoch invalidation")
	}
}

// TestOracleCrashRestoreEquivalence kills and restores the fast engine
// mid-trace — checkpoint at the kill point, fresh chain, Restore from
// the encoded checkpoint plus the durable WAL prefix — under the usual
// fault chaos, in scalar and vector mode, and demands zero divergence
// from the uninterrupted reference. Closure-bearing rules cannot
// survive a restore, so their flows must transparently re-record.
func TestOracleCrashRestoreEquivalence(t *testing.T) {
	for _, batch := range []int{0, 32} {
		res := mustPass(t, OracleConfig{Seed: 1, Schedules: short(30, 6), Crashes: 2, Batch: batch})
		if res.CrashRestores == 0 {
			t.Errorf("batch=%d: no crash/restore cycles; the run was vacuous", batch)
		}
		if res.Injected == 0 || res.Fallbacks == 0 {
			t.Errorf("batch=%d: vacuous run: no faults or no fallbacks", batch)
		}
	}
}

// TestOracleCrashWithReconfigs composes the two hardest schedules:
// live chain changes AND engine crashes in the same trace. A restore
// must rebuild the reconfigured chain composition (replaying surviving
// plans) and come back under the correct epoch, or rules consolidated
// before a reconfiguration would serve after it.
func TestOracleCrashWithReconfigs(t *testing.T) {
	res := mustPass(t, OracleConfig{Seed: 5, Schedules: short(20, 4), Crashes: 2, Reconfigs: 3})
	if res.CrashRestores == 0 || res.Reconfigs == 0 {
		t.Errorf("vacuous run: crashes=%d reconfigs=%d", res.CrashRestores, res.Reconfigs)
	}
}

// TestOracleDeterministic re-runs the same seed on every system and
// expects the identical result — every counter, migrations and
// rebalances included — which is the whole point of seeded schedules.
func TestOracleDeterministic(t *testing.T) {
	for _, sys := range []System{SystemEngine, SystemTopology, SystemCluster} {
		run := func() *OracleResult {
			res, err := RunOracle(OracleConfig{Seed: 7, Schedules: 6, System: sys, Reconfigs: 2, Crashes: 1})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Errorf("system %d: equal seeds diverged: %+v vs %+v", sys, a, b)
		}
	}
}

// TestOracleRejectsMisconfiguration covers the settings a system would
// otherwise silently ignore.
func TestOracleRejectsMisconfiguration(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  OracleConfig
	}{
		{"unknown system", OracleConfig{System: SystemCluster + 1}},
		{"route tamper on engine", OracleConfig{TamperRoute: func(_ *packet.Packet, c int) int { return c }}},
		{"route tamper on cluster", OracleConfig{System: SystemCluster, TamperRoute: func(_ *packet.Packet, c int) int { return c }}},
		{"migration tamper on engine", OracleConfig{TamperMigration: func(*wal.MigrationRecord) {}}},
		{"migration tamper on topology", OracleConfig{System: SystemTopology, TamperMigration: func(*wal.MigrationRecord) {}}},
		{"rule tamper on cluster", OracleConfig{System: SystemCluster, TamperRule: func(*mat.GlobalRule) {}}},
		{"reconfig tamper on topology", OracleConfig{System: SystemTopology, TamperReconfig: func(*core.Engine, []*mat.GlobalRule) {}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Schedules = 1
			if _, err := RunOracle(tc.cfg); err == nil {
				t.Error("misconfigured oracle ran")
			}
		})
	}
}

// TestCompareNFStateCoversEachNF proves the end-of-trace comparator
// reads every state-bearing NF of the oracle chains: a fast side that
// ran a trace the reference never saw, with one backend failed, must
// be reported for each of them.
func TestCompareNFStateCoversEachNF(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 1, Flows: 24, AlertFraction: 0.15, LogFraction: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for chain, want := range map[int]string{
		1: "monitor counters|monitor tracked flows|maglev backend health|maglev backend of|mazunat mappings",
		2: "monitor counters|monitor tracked flows|snort logs",
	} {
		ref, err := buildOracleChain(chain)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := newEngineSystem(chain, core.DefaultOptions(), OracleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var fids []flow.FID
		for _, pkt := range tr.Packets() {
			if _, err := fast.process([]*packet.Packet{pkt}, func(_ int, r *core.PacketResult, _ int) bool {
				fids = append(fids, r.FID)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if lb := maglevIn(fast.nfs()); lb != nil && lb.FailBackend(0) != nil {
			t.Fatal("FailBackend(0) failed")
		}
		var got string
		compareNFState(ref, fast.nfs(), fids, func(_ int, format string, args ...any) {
			got += "\n" + fmt.Sprintf(format, args...)
		})
		for _, d := range strings.Split(want, "|") {
			if !strings.Contains(got, "\n"+d) {
				t.Errorf("chain %d: no %q divergence in:%s", chain, d, got)
			}
		}
	}
}

// short picks a schedule count for full or -short runs.
func short(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// mustPass runs the oracle and stops the test unless every schedule
// agreed.
func mustPass(t *testing.T, cfg OracleConfig) *OracleResult {
	t.Helper()
	res, err := RunOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("oracle (system %d, batch %d) failed:\n%s", cfg.System, cfg.Batch, res.Format())
	}
	return res
}
