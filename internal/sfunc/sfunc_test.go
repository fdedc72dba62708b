package sfunc

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

func testPacket(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
		Payload: []byte("payload-bytes"),
	})
}

func costed(name string, class PayloadClass, cycles uint64) Func {
	return Func{Name: name, Class: class, Run: func(*packet.Packet) (uint64, error) {
		return cycles, nil
	}}
}

func TestPayloadClass(t *testing.T) {
	if PayloadClass(0).Valid() {
		t.Error("zero class must be invalid")
	}
	for c, name := range map[PayloadClass]string{
		ClassIgnore: "ignore", ClassRead: "read", ClassWrite: "write",
	} {
		if !c.Valid() || c.String() != name {
			t.Errorf("class %d: valid=%v name=%q", c, c.Valid(), c.String())
		}
	}
}

func TestBatchClassPriority(t *testing.T) {
	tests := []struct {
		name    string
		classes []PayloadClass
		want    PayloadClass
	}{
		{"empty is ignore", nil, ClassIgnore},
		{"single read", []PayloadClass{ClassRead}, ClassRead},
		{"read read write is write (paper example)", []PayloadClass{ClassRead, ClassRead, ClassWrite}, ClassWrite},
		{"ignore read", []PayloadClass{ClassIgnore, ClassRead}, ClassRead},
		{"all ignore", []PayloadClass{ClassIgnore, ClassIgnore}, ClassIgnore},
		{"write first", []PayloadClass{ClassWrite, ClassIgnore}, ClassWrite},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := Batch{NF: "x"}
			for i, c := range tt.classes {
				b.Funcs = append(b.Funcs, costed("f", c, uint64(i)))
			}
			if got := b.Class(); got != tt.want {
				t.Errorf("Class() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestParallelizableTableI checks all nine combinations against the
// paper's rule: a writer can only pair with an ignorer.
func TestParallelizableTableI(t *testing.T) {
	tests := []struct {
		b1, b2 PayloadClass
		want   bool
	}{
		{ClassWrite, ClassWrite, false},
		{ClassWrite, ClassRead, false},
		{ClassWrite, ClassIgnore, true},
		{ClassRead, ClassWrite, false},
		{ClassRead, ClassRead, true},
		{ClassRead, ClassIgnore, true},
		{ClassIgnore, ClassWrite, true},
		{ClassIgnore, ClassRead, true},
		{ClassIgnore, ClassIgnore, true},
	}
	for _, tt := range tests {
		if got := Parallelizable(tt.b1, tt.b2); got != tt.want {
			t.Errorf("Parallelizable(%v, %v) = %v, want %v", tt.b1, tt.b2, got, tt.want)
		}
	}
}

func TestParallelizableSymmetricForNonWriters(t *testing.T) {
	f := func(a, b uint8) bool {
		c1 := PayloadClass(a%3) + 1
		c2 := PayloadClass(b%3) + 1
		return Parallelizable(c1, c2) == Parallelizable(c2, c1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanGrouping(t *testing.T) {
	mk := func(classes ...PayloadClass) []Batch {
		bs := make([]Batch, len(classes))
		for i, c := range classes {
			bs[i] = Batch{NF: "nf", Funcs: []Func{costed("f", c, 1)}}
		}
		return bs
	}
	tests := []struct {
		name    string
		batches []Batch
		want    string
	}{
		{"empty", nil, ""},
		{"single", mk(ClassRead), "[0]"},
		{"three reads fuse (Fig 5 synthetic NFs)", mk(ClassRead, ClassRead, ClassRead), "[0 1 2]"},
		{"write splits readers", mk(ClassRead, ClassWrite, ClassRead), "[0] [1] [2]"},
		{"write pairs with ignore", mk(ClassWrite, ClassIgnore), "[0 1]"},
		{"ignore between writes fuses once", mk(ClassWrite, ClassIgnore, ClassWrite), "[0 1] [2]"},
		{"snort then monitor (read, ignore)", mk(ClassRead, ClassIgnore), "[0 1]"},
		{"empty batches skipped", []Batch{{NF: "a"}, {NF: "b", Funcs: []Func{costed("f", ClassRead, 1)}}, {NF: "c"}}, "[1]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Plan(tt.batches).String(); got != tt.want {
				t.Errorf("Plan = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestPlanPreservesOrder(t *testing.T) {
	// Indices within the flattened schedule must be strictly
	// increasing: the plan never reorders batches.
	f := func(raw []uint8) bool {
		batches := make([]Batch, len(raw))
		for i, r := range raw {
			batches[i] = Batch{NF: "nf", Funcs: []Func{costed("f", PayloadClass(r%3)+1, 1)}}
		}
		var last = -1
		for _, stage := range Plan(batches).Stages {
			for _, idx := range stage {
				if idx <= last {
					return false
				}
				last = idx
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanStagesPairwiseCompatible(t *testing.T) {
	f := func(raw []uint8) bool {
		batches := make([]Batch, len(raw))
		for i, r := range raw {
			batches[i] = Batch{NF: "nf", Funcs: []Func{costed("f", PayloadClass(r%3)+1, 1)}}
		}
		for _, stage := range Plan(batches).Stages {
			for i := 0; i < len(stage); i++ {
				for j := i + 1; j < len(stage); j++ {
					if !Parallelizable(batches[stage[i]].Class(), batches[stage[j]].Class()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExecuteCriticalPath(t *testing.T) {
	// Two parallel read batches: critical path is max + forkJoin,
	// total is sum + forkJoin.
	batches := []Batch{
		{NF: "a", Funcs: []Func{costed("fa", ClassRead, 300)}},
		{NF: "b", Funcs: []Func{costed("fb", ClassRead, 500)}},
	}
	plan := Plan(batches)
	if plan.ParallelStages() != 1 {
		t.Fatalf("plan = %v, want one parallel stage", plan)
	}
	res, err := plan.Execute(batches, testPacket(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCycles != 600 {
		t.Errorf("CriticalCycles = %d, want 600 (max 500 + forkJoin 100)", res.CriticalCycles)
	}
	if res.TotalCycles != 900 {
		t.Errorf("TotalCycles = %d, want 900", res.TotalCycles)
	}
}

func TestExecuteAllocFree(t *testing.T) {
	// The fast path runs an executor per packet with state functions;
	// its result must not cost an allocation.
	batches := []Batch{
		{NF: "a", Funcs: []Func{costed("fa", ClassRead, 300)}},
		{NF: "b", Funcs: []Func{costed("fb", ClassRead, 500)}},
		{NF: "c", Funcs: []Func{costed("fc", ClassWrite, 200)}},
	}
	plan, pkt := Plan(batches), testPacket(t)
	if n := testing.AllocsPerRun(100, func() { _, _ = plan.Execute(batches, pkt, 100) }); n != 0 {
		t.Errorf("Execute allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ExecuteSequential(batches, pkt) }); n != 0 {
		t.Errorf("ExecuteSequential allocs = %v, want 0", n)
	}
}

func TestExecuteSequentialStage(t *testing.T) {
	// A single-batch stage pays no fork/join.
	batches := []Batch{{NF: "a", Funcs: []Func{costed("fa", ClassWrite, 300)}},
		{NF: "b", Funcs: []Func{costed("fb", ClassWrite, 500)}}}
	res, err := Plan(batches).Execute(batches, testPacket(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCycles != 800 || res.TotalCycles != 800 {
		t.Errorf("sequential writes: critical=%d total=%d, want 800/800", res.CriticalCycles, res.TotalCycles)
	}
}

// goroutineID returns the calling goroutine's id from the header line
// of its stack trace ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestExecuteParallelStageInline(t *testing.T) {
	// Four read batches fuse into one parallel stage; the two in the
	// middle fail. The stage still runs all four, in chain order, on
	// the caller's goroutine, reports the parallel charge, returns the
	// chain-order first error, and stops the later write stage.
	errB, errC := errors.New("b failed"), errors.New("c failed")
	caller := goroutineID()
	var order []string
	mk := func(name string, class PayloadClass, cycles uint64, err error) Batch {
		return Batch{NF: name, Funcs: []Func{{Name: "f", Class: class,
			Run: func(*packet.Packet) (uint64, error) {
				if id := goroutineID(); id != caller {
					t.Errorf("batch %s ran on goroutine %s, want caller %s", name, id, caller)
				}
				order = append(order, name)
				return cycles, err
			}}}}
	}
	batches := []Batch{
		mk("a", ClassRead, 300, nil),
		mk("b", ClassRead, 500, errB),
		mk("c", ClassRead, 200, errC),
		mk("d", ClassRead, 100, nil),
		mk("e", ClassWrite, 1000, nil),
	}
	plan := Plan(batches)
	if len(plan.Stages) != 2 || len(plan.Stages[0]) != 4 {
		t.Fatalf("plan = %v, want [0 1 2 3] [4]", plan)
	}
	res, err := plan.Execute(batches, testPacket(t), 100)
	if !errors.Is(err, errB) || errors.Is(err, errC) {
		t.Errorf("err = %v, want b's error (first in chain order)", err)
	}
	if got := strings.Join(order, ""); got != "abcd" {
		t.Errorf("ran %q, want abcd: every stage-mate runs, later stages do not", got)
	}
	if res.Stages != 1 || res.CriticalCycles != 600 || res.MaxStageCritical != 600 {
		t.Errorf("stages=%d critical=%d maxStage=%d, want 1/600/600 (max 500 + forkJoin 100)",
			res.Stages, res.CriticalCycles, res.MaxStageCritical)
	}
	if res.TotalCycles != 1200 {
		t.Errorf("TotalCycles = %d, want 1200 (sum 1100 + forkJoin 100)", res.TotalCycles)
	}
}

func TestExecuteErrorFailFast(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	batches := []Batch{
		{NF: "a", Funcs: []Func{{Name: "fail", Class: ClassWrite, Run: func(*packet.Packet) (uint64, error) {
			return 10, boom
		}}}},
		{NF: "b", Funcs: []Func{{Name: "later", Class: ClassWrite, Run: func(*packet.Packet) (uint64, error) {
			ran++
			return 10, nil
		}}}},
	}
	_, err := Plan(batches).Execute(batches, testPacket(t), 0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !errors.Is(err, ErrBatchFailed) {
		t.Errorf("err = %v, want ErrBatchFailed in chain", err)
	}
	if ran != 0 {
		t.Error("later stage ran after earlier stage failed")
	}
}

func TestBatchRunSequentialOrder(t *testing.T) {
	var order []string
	mk := func(name string) Func {
		return Func{Name: name, Class: ClassIgnore, Run: func(*packet.Packet) (uint64, error) {
			order = append(order, name)
			return 5, nil
		}}
	}
	b := Batch{NF: "nf", Funcs: []Func{mk("first"), mk("second"), mk("third")}}
	cycles, err := b.RunSequential(testPacket(t))
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 15 {
		t.Errorf("cycles = %d, want 15", cycles)
	}
	if len(order) != 3 || order[0] != "first" || order[2] != "third" {
		t.Errorf("order = %v", order)
	}
}

func TestExecuteSequentialHelper(t *testing.T) {
	batches := []Batch{
		{NF: "a", Funcs: []Func{costed("fa", ClassRead, 300)}},
		{NF: "b"},
		{NF: "c", Funcs: []Func{costed("fc", ClassRead, 500)}},
	}
	res, err := ExecuteSequential(batches, testPacket(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCycles != 800 || res.TotalCycles != 800 {
		t.Errorf("critical=%d total=%d, want 800/800", res.CriticalCycles, res.TotalCycles)
	}
	if res.Stages != 2 || res.MaxStageCritical != 500 {
		t.Errorf("stages=%d maxStage=%d, want 2/500 (empty batch skipped)", res.Stages, res.MaxStageCritical)
	}
}

func TestFuncValidate(t *testing.T) {
	if err := (Func{Name: "ok", Class: ClassRead, Run: func(*packet.Packet) (uint64, error) { return 0, nil }}).Validate(); err != nil {
		t.Errorf("valid func rejected: %v", err)
	}
	if err := (Func{Name: "nil", Class: ClassRead}).Validate(); err == nil {
		t.Error("nil handler accepted")
	}
	if err := (Func{Name: "badclass", Class: 0, Run: func(*packet.Packet) (uint64, error) { return 0, nil }}).Validate(); err == nil {
		t.Error("invalid class accepted")
	}
}

// Property: parallel execution of read-only batches leaves the payload
// byte-identical to sequential execution (invariant 8 in DESIGN.md).
func TestQuickParallelReadersPreservePayload(t *testing.T) {
	f := func(payload []byte, n uint8) bool {
		if len(payload) > 256 {
			payload = payload[:256]
		}
		nBatches := int(n%4) + 2
		batches := make([]Batch, nBatches)
		for i := range batches {
			batches[i] = Batch{NF: "r", Funcs: []Func{{Name: "scan", Class: ClassRead,
				Run: func(p *packet.Packet) (uint64, error) {
					var sum byte
					for _, b := range p.Payload() {
						sum += b
					}
					_ = sum
					return uint64(len(p.Payload())), nil
				}}}}
		}
		spec := packet.Spec{SrcIP: packet.IP4(1, 1, 1, 1), DstIP: packet.IP4(2, 2, 2, 2),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP, Payload: payload}
		p1, err := packet.Build(spec)
		if err != nil {
			return false
		}
		p2 := p1.Clone()
		if _, err := Plan(batches).Execute(batches, p1, 0); err != nil {
			return false
		}
		if _, err := ExecuteSequential(batches, p2); err != nil {
			return false
		}
		return string(p1.Data()) == string(p2.Data())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
