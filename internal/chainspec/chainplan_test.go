package chainspec

import (
	"errors"
	"strings"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
)

// TestParsePlanValid covers the accepted plan surface: every op, both
// schema versions, and the default-name shorthand.
func TestParsePlanValid(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		op       string
	}{
		{"insert v1", `{"version": 1, "op": "insert", "pos": 1, "nf": {"type": "monitor"}}`, "insert"},
		{"insert v0", `{"op": "insert", "pos": 0, "nf": {"type": "monitor", "name": "m2"}}`, "insert"},
		{"remove", `{"op": "remove", "name": "mon"}`, "remove"},
		{"replace", `{"op": "replace", "name": "mon", "nf": {"type": "monitor", "name": "mon"}}`, "replace"},
		{"reorder", `{"op": "reorder", "name": "mon", "pos": 0}`, "reorder"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParsePlan([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if p.Op != tc.op {
				t.Errorf("op = %q, want %q", p.Op, tc.op)
			}
		})
	}
}

// TestParsePlanErrors covers structural rejection: bad JSON, unknown
// fields (typo protection), unsupported versions, unknown ops.
func TestParsePlanErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		sentinel error // nil: any error is fine
	}{
		{"malformed", `{"op": `, nil},
		{"unknown field", `{"op": "remove", "name": "m", "position": 2}`, nil},
		{"bad version", `{"version": 2, "op": "remove", "name": "m"}`, nil},
		{"unknown op", `{"op": "rotate", "name": "m"}`, core.ErrPlanInvalid},
		{"empty op", `{"name": "m"}`, core.ErrPlanInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlan([]byte(tc.in))
			if err == nil {
				t.Fatal("plan accepted")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// TestCompilePlanErrors is the validation table: every rejection class
// must map to its typed sentinel so control planes can errors.Is.
func TestCompilePlanErrors(t *testing.T) {
	chain := []string{"nat", "lb", "mon", "fw"}
	mon := &NFSpec{Type: "monitor", Name: "probe"}
	for _, tc := range []struct {
		name     string
		plan     ChainPlan
		current  []string
		sentinel error // nil: any non-sentinel error
	}{
		{"insert without nf", ChainPlan{Op: "insert", Pos: 1}, chain, core.ErrPlanInvalid},
		{"insert negative pos", ChainPlan{Op: "insert", Pos: -1, NF: mon}, chain, core.ErrPlanOutOfRange},
		{"insert past end", ChainPlan{Op: "insert", Pos: 5, NF: mon}, chain, core.ErrPlanOutOfRange},
		{"insert duplicate name", ChainPlan{Op: "insert", Pos: 0, NF: &NFSpec{Type: "monitor", Name: "lb"}}, chain, core.ErrPlanDuplicateNF},
		{"remove unknown", ChainPlan{Op: "remove", Name: "ghost"}, chain, core.ErrPlanUnknownNF},
		{"remove last nf", ChainPlan{Op: "remove", Name: "solo"}, []string{"solo"}, core.ErrPlanEmptyChain},
		{"replace without nf", ChainPlan{Op: "replace", Name: "mon"}, chain, core.ErrPlanInvalid},
		{"replace unknown", ChainPlan{Op: "replace", Name: "ghost", NF: mon}, chain, core.ErrPlanUnknownNF},
		{"replace steals name", ChainPlan{Op: "replace", Name: "mon", NF: &NFSpec{Type: "monitor", Name: "fw"}}, chain, core.ErrPlanDuplicateNF},
		{"reorder unknown", ChainPlan{Op: "reorder", Name: "ghost", Pos: 0}, chain, core.ErrPlanUnknownNF},
		{"reorder past end", ChainPlan{Op: "reorder", Name: "mon", Pos: 4}, chain, core.ErrPlanOutOfRange},
		{"unbuildable nf", ChainPlan{Op: "insert", Pos: 0, NF: &NFSpec{Type: "warp-drive"}}, chain, nil},
		{"acl past bound", ChainPlan{Op: "insert", Pos: 0, NF: &NFSpec{Type: "ipfilter", Name: "big", ACLSize: 2000000000}}, chain, ErrNFConfig},
		{"table past bound", ChainPlan{Op: "insert", Pos: 0, NF: &NFSpec{Type: "maglev", Name: "big",
			TableSize: 2000000011, Backends: []BackendSpec{{Name: "a", IP: "10.0.0.1", Port: 1}}}}, chain, ErrNFConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.plan.Compile(tc.current)
			if err == nil {
				t.Fatal("plan compiled")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// TestCompilePlanSuccess checks the accepted shapes, including the two
// subtle ones: replacing an NF with a same-named successor (not a
// duplicate — it's the same slot) and defaulting the NF name to its
// type.
func TestCompilePlanSuccess(t *testing.T) {
	chain := []string{"nat", "lb", "mon"}

	out, err := (&ChainPlan{Op: "insert", Pos: 3, NF: &NFSpec{Type: "monitor"}}).Compile(chain)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != core.OpInsert || out.Pos != 3 || out.NF == nil || out.NF.Name() != "monitor" {
		t.Errorf("insert compiled to %+v (nf %v)", out, out.NF)
	}

	out, err = (&ChainPlan{Op: "replace", Name: "mon", NF: &NFSpec{Type: "monitor", Name: "mon"}}).Compile(chain)
	if err != nil {
		t.Fatalf("same-name replace rejected: %v", err)
	}
	if out.Op != core.OpReplace || out.NF == nil || out.NF.Name() != "mon" {
		t.Errorf("replace compiled to %+v", out)
	}

	out, err = (&ChainPlan{Op: "remove", Name: "lb"}).Compile(chain)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != core.OpRemove || out.Name != "lb" || out.NF != nil {
		t.Errorf("remove compiled to %+v", out)
	}
}

// TestReconfigureRejectionLeavesEpoch drives compiled-but-stale plans
// into a live engine: the engine revalidates under its own lock, the
// rejection carries the same typed sentinel, and — the property the
// fast path depends on — a rejected plan consumes no epoch, so no rule
// is invalidated by a plan that changed nothing.
func TestReconfigureRejectionLeavesEpoch(t *testing.T) {
	spec, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(chain, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// A plan compiled against a stale view: valid then, invalid now.
	staleView := append(eng.ChainNames(), "departed")
	plan, err := (&ChainPlan{Op: "remove", Name: "departed"}).Compile(staleView)
	if err != nil {
		t.Fatalf("plan valid against its view but rejected: %v", err)
	}
	before := eng.Epoch()
	if err := eng.Reconfigure(plan); !errors.Is(err, core.ErrPlanUnknownNF) {
		t.Errorf("stale plan: got %v, want ErrPlanUnknownNF", err)
	}
	if eng.Epoch() != before {
		t.Errorf("rejected plan advanced the epoch: %d -> %d", before, eng.Epoch())
	}

	// And a valid compiled plan round-trips through the engine.
	good, err := (&ChainPlan{Op: "insert", Pos: eng.ChainLen(),
		NF: &NFSpec{Type: "monitor", Name: "probe"}}).Compile(eng.ChainNames())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(good); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != before+1 {
		t.Errorf("applied plan moved epoch to %d, want %d", eng.Epoch(), before+1)
	}
	if names := eng.ChainNames(); names[len(names)-1] != "probe" {
		t.Errorf("chain after insert = %v", names)
	}
	if !strings.Contains(strings.Join(eng.ChainNames(), ","), "probe") {
		t.Error("inserted NF missing from chain")
	}
}

// TestNFSizeBoundsInclusive builds both NFs at their largest accepted
// size.
func TestNFSizeBoundsInclusive(t *testing.T) {
	for _, nf := range []NFSpec{
		{Type: "ipfilter", Name: "fw", ACLSize: maxACLSize},
		{Type: "maglev", Name: "lb", TableSize: maxTableSize, Backends: []BackendSpec{{Name: "a", IP: "10.0.0.1", Port: 1}}},
	} {
		if _, err := nf.Instantiate(nf.Name); err != nil {
			t.Errorf("%s at its bound: %v", nf.Type, err)
		}
	}
}

// FuzzParsePlan feeds arbitrary bodies down the daemon's plan path —
// ParsePlan, then Compile against a fixed chain — which must reject
// bad input with an error and never panic.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		`{"version": 1, "op": "insert", "pos": 2, "nf": {"type": "monitor", "name": "mon-b"}}`,
		`{"op": "remove", "name": "mon"}`,
		`{"op": "reorder", "name": "fw", "pos": 0}`,
		`{"op": "replace", "name": "lb", "nf": {"type": "maglev", "name": "lb", "table_size": 653,
		  "backends": [{"name": "a", "ip": "192.168.1.10", "port": 8080}]}}`,
		`{"op": "insert", "pos": 1, "nf": {"type": "ipfilter", "acl_size": 2000000000}}`,
		`{"op": "insert", "pos": 0, "nf": {"type": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "198.51.100.1"}}`,
		`{"op": "insert", "pos": 0, "nf": {"type": "gateway", "next_hop_mac": "02:00:00:00:00:01", "voice_ports": [5060]}}`,
		`{"op": "insert", "pos": 0, "nf": {"type": "snort", "rules": "garbage"}}`,
	} {
		f.Add([]byte(seed))
	}
	chain := []string{"nat", "lb", "mon", "fw"}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		_, _ = p.Compile(chain)
	})
}
