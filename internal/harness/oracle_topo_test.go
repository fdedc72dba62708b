package harness

import (
	"reflect"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// TestTopoOracleEquivalence runs the multi-chain topology oracle: three
// chains with different semantics sharing a monitor, three tenants with
// tight quotas, under the usual randomized fault chaos. Every packet
// must agree with its per-flow pure slow-path reference, and both the
// fault machinery and the degradation machinery must demonstrably
// engage.
func TestTopoOracleEquivalence(t *testing.T) {
	res := mustPass(t, OracleConfig{Seed: 1, Schedules: short(40, 8), System: SystemTopology})
	if res.Injected == 0 {
		t.Error("no faults injected; the run was vacuous")
	}
	if res.Fallbacks == 0 {
		t.Error("no slow-path fallbacks; degradation never engaged")
	}
}

// TestTopoOracleComposed composes the topology oracle with everything
// at once: live reconfigurations on a rotating target chain, whole-
// topology crash/restore cycles, and batched fast-path execution with
// vectors clipped at chain boundaries and event indices.
func TestTopoOracleComposed(t *testing.T) {
	for _, batch := range []int{0, 16} {
		res := mustPass(t, OracleConfig{
			Seed: 1, Schedules: short(20, 4), System: SystemTopology,
			Reconfigs: 3, Crashes: 2, Batch: batch,
		})
		if res.Reconfigs == 0 || res.CrashRestores == 0 {
			t.Errorf("batch=%d: vacuous run: reconfigs=%d crashes=%d",
				batch, res.Reconfigs, res.CrashRestores)
		}
	}
}

// TestTopoOracleCatchesMisclassification proves the topology oracle has
// teeth: routing the VoIP chain's flows down the web chain must surface
// as a route divergence — the reference took a different chain.
// A classifier bug that silently sends flows to the wrong chain is
// exactly the failure mode this oracle exists to catch.
func TestTopoOracleCatchesMisclassification(t *testing.T) {
	res, err := RunOracle(OracleConfig{
		Seed: 1, Schedules: 4, System: SystemTopology,
		Rates: fault.UniformRates(0), // isolate the tamper
		TamperRoute: func(pkt *packet.Packet, chain int) int {
			if chain == 1 { // voip -> web
				return 0
			}
			return chain
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("topo oracle passed a deliberately mis-classified flow")
	}
}

// TestTopoOracleDeterministic re-runs one topology seed and expects the
// identical result.
func TestTopoOracleDeterministic(t *testing.T) {
	run := func() *OracleResult {
		res, err := RunOracle(OracleConfig{Seed: 7, Schedules: 6, System: SystemTopology})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("equal seeds diverged: %+v vs %+v", a, b)
	}
}
