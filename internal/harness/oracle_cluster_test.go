package harness

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// TestOracleClusterEquivalence is the CI-sized cluster differential
// run: every schedule scales the cluster 1→2→4→3 mid-trace, live-
// migrating flows at each step, and the per-packet stream must stay
// bit-identical to a static single engine — zero drops, zero verdict
// or byte divergence across every rebalance. The run is vacuous
// unless flows actually moved and rebalances actually completed.
func TestOracleClusterEquivalence(t *testing.T) {
	res := mustPass(t, OracleConfig{Seed: 1, Schedules: short(60, 10), System: SystemCluster})
	if res.Migrations == 0 {
		t.Error("no flows migrated; the run was vacuous")
	}
	if res.Rebalances == 0 {
		t.Error("no rebalances completed; scaling never happened")
	}
	if res.Injected == 0 || res.Fallbacks == 0 {
		t.Error("no faults or no fallbacks; degradation never engaged under scaling")
	}
}

// TestOracleClusterBatchEquivalence drives the cluster through its
// batched run-splitting path in 32-packet vectors: outcomes — packets
// compared, faults injected, degradation counters, flows migrated —
// must be identical to the scalar cluster run under the same seeds.
func TestOracleClusterBatchEquivalence(t *testing.T) {
	schedules := short(40, 8)
	batched := mustPass(t, OracleConfig{Seed: 1, Schedules: schedules, System: SystemCluster, Batch: 32})
	scalar := mustPass(t, OracleConfig{Seed: 1, Schedules: schedules, System: SystemCluster})
	if batched.Packets != scalar.Packets || batched.Injected != scalar.Injected ||
		batched.Fallbacks != scalar.Fallbacks || batched.Degraded != scalar.Degraded ||
		batched.Migrations != scalar.Migrations || batched.Rebalances != scalar.Rebalances {
		t.Errorf("batched and scalar cluster runs disagree:\nbatched: %+v\nscalar:  %+v",
			batched, scalar)
	}
}

// TestOracleClusterComposed layers every environmental event the
// oracle knows onto the scaling cluster at once: batched vectors,
// cluster-wide live reconfigurations and instance crash-restores, all
// interleaved with rebalances on the same trace.
func TestOracleClusterComposed(t *testing.T) {
	res := mustPass(t, OracleConfig{
		Seed: 1, Schedules: short(30, 6), System: SystemCluster,
		Batch: 16, Reconfigs: 3, Crashes: 2,
	})
	if res.Migrations == 0 || res.Reconfigs == 0 || res.CrashRestores == 0 {
		t.Errorf("vacuous composition: %d migrations, %d reconfigs, %d crashes",
			res.Migrations, res.Reconfigs, res.CrashRestores)
	}
}

// TestOracleClusterAbortRollback turns migration aborts up so high
// that most rebalances roll back mid-migration, and demands the
// packet stream cannot tell: an aborted rebalance must leave every
// flow on its old owner with its state bit-intact.
func TestOracleClusterAbortRollback(t *testing.T) {
	rates := fault.UniformRates(0)
	rates[fault.KindMigrationAbort] = 0.25
	res := mustPass(t, OracleConfig{
		Seed: 1, Schedules: 20, System: SystemCluster, Rates: rates,
	})
	if res.MigrationAborts == 0 {
		t.Error("no rebalances aborted; the rollback path never ran")
	}
	if res.Rebalances == 0 {
		t.Error("every rebalance aborted; the commit path never ran")
	}
}

// TestOracleClusterCatchesTamperedMigration proves the cluster oracle
// has teeth: corrupting the rule inside a decoded migration record
// (flipping its verdict before the new owner adopts it) must surface
// as a divergence. The stateless chain is forced so migrations carry
// rules instead of demoting to re-record.
func TestOracleClusterCatchesTamperedMigration(t *testing.T) {
	withRule := 0
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 3, System: SystemCluster, Chain: 3,
		Rates: fault.UniformRates(0),
		TamperMigration: func(r *wal.MigrationRecord) {
			if r.Rule != nil {
				withRule++
				r.Rule.Drop = !r.Rule.Drop
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withRule == 0 {
		t.Fatal("no migration carried a rule; the tamper never fired")
	}
	if res.Passed() {
		t.Fatal("cluster oracle passed a deliberately corrupted migration")
	}
	d := res.Divergences[0]
	if d.Seed == 0 {
		t.Errorf("divergence not pinpointed: %+v", d)
	}
}

// TestOracleClusterStatelessChain runs the rule-carrying chain clean:
// migrations on the stateless chain move whole consolidated rules and
// must still be invisible to the packet stream.
func TestOracleClusterStatelessChain(t *testing.T) {
	res := mustPass(t, OracleConfig{Seed: 7, Schedules: 10, System: SystemCluster, Chain: 3})
	if res.Migrations == 0 {
		t.Error("no migrations on the stateless chain")
	}
}
