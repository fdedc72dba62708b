package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/trace"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// testChain builds a header-transform chain (IPFilter -> Gateway) and
// optionally a Monitor. Without the monitor no NF registers state
// functions, so consolidated rules are batch-free and travel whole in
// migration records; with it every rule is closure-bearing and
// migration demotes to re-record.
func testChain(t *testing.T, withMonitor bool) []core.NF {
	t.Helper()
	fw, err := ipfilter.New(ipfilter.Config{Name: "ipfilter", Rules: ipfilter.PadRules(nil, 50)})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{Name: "gateway", NextHopMAC: [6]byte{2, 0, 0, 0, 0, 0xfe}})
	if err != nil {
		t.Fatal(err)
	}
	nfs := []core.NF{fw, gw}
	if withMonitor {
		mon, err := monitor.New("monitor")
		if err != nil {
			t.Fatal(err)
		}
		nfs = append(nfs, mon)
	}
	return nfs
}

func newTestCluster(t *testing.T, n int, withMonitor bool, inj *fault.Injector) *Cluster {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Faults = inj
	cl, err := New(Config{Chain: testChain(t, withMonitor), Options: opts, Instances: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func newRefEngine(t *testing.T, withMonitor bool) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(testChain(t, withMonitor), core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// pkt builds one TCP packet of flow f (distinct 5-tuple per f).
func pkt(f int, flags uint8, seq uint32, payload string) *packet.Packet {
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, byte(f>>8), byte(f)), DstIP: packet.IP4(192, 0, 2, 1),
		SrcPort: uint16(1024 + f), DstPort: 80, Proto: packet.ProtoTCP,
		TCPFlags: flags, Seq: seq,
		Payload: []byte(payload),
	})
}

// handshake returns SYN + bare ACK for flow f (leaves it Established).
func handshake(f int) []*packet.Packet {
	return []*packet.Packet{
		pkt(f, packet.TCPFlagSYN, 1, ""),
		pkt(f, packet.TCPFlagACK, 2, ""),
	}
}

func data(f int, seq uint32) *packet.Packet {
	return pkt(f, packet.TCPFlagACK, seq, fmt.Sprintf("payload-%d-%d", f, seq))
}

// compare runs clones of the same packet through the cluster and the
// reference engine and demands identical verdict, drop decision and
// rewritten bytes.
func compare(t *testing.T, cl *Cluster, ref *core.Engine, mk func() *packet.Packet, tag string) {
	t.Helper()
	cp, rp := mk(), mk()
	var got core.Verdict
	err := cl.ProcessRuns([]*packet.Packet{cp}, 1, platform.NewBatch(1), func(_ int, ms []platform.Measurement) error {
		got = ms[0].Result.Verdict
		return nil
	})
	if err != nil {
		t.Fatalf("%s: cluster: %v", tag, err)
	}
	rr, err := ref.ProcessPacket(rp)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	if got != rr.Verdict {
		t.Fatalf("%s: verdict cluster %v, ref %v", tag, got, rr.Verdict)
	}
	if cp.Dropped() != rp.Dropped() {
		t.Fatalf("%s: dropped cluster %v, ref %v", tag, cp.Dropped(), rp.Dropped())
	}
	if !cp.Dropped() && !bytes.Equal(cp.Data(), rp.Data()) {
		t.Fatalf("%s: rewritten bytes differ", tag)
	}
}

// establish pushes flows 0..n-1 through handshake + one data packet
// on both the cluster and the reference.
func establish(t *testing.T, cl *Cluster, ref *core.Engine, n int) {
	t.Helper()
	for f := 0; f < n; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagSYN, 1, "") }, "syn")
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagACK, 2, "") }, "ack")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 3) }, "data")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	chain := testChain(t, false)
	if _, err := New(Config{Chain: chain, TableSize: 10}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("composite table size: %v", err)
	}
	if _, err := New(Config{Chain: chain, TableSize: 3, Instances: 3}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("table smaller than fleet: %v", err)
	}
}

// TestMigrateMidHandshake scales out while flows are mid-handshake
// (SYN seen, ACK not yet): the half-open flows must migrate as flow
// entries and complete their handshake on the new owner with verdicts
// identical to the uninterrupted reference.
func TestMigrateMidHandshake(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagSYN, 1, "") }, "syn")
	}
	if _, err := cl.AddInstance(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Migrations(); got == 0 {
		t.Fatal("no flows migrated on scale-out")
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagACK, 2, "") }, "ack after cutover")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 3) }, "data after cutover")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 4) }, "data 2 after cutover")
	}
}

// TestFINRacesMigration closes half the flows immediately before the
// rebalance: closed flows are torn down, the surviving half migrates,
// and post-cutover traffic (including a late FIN for a migrated flow)
// must match the reference.
func TestFINRacesMigration(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	for f := 0; f < flows; f += 2 {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagFIN|packet.TCPFlagACK, 9, "") }, "fin before cutover")
	}
	if _, err := cl.AddInstance(); err != nil {
		t.Fatal(err)
	}
	for f := 1; f < flows; f += 2 {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "survivor data")
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagFIN|packet.TCPFlagACK, 9, "") }, "fin after cutover")
	}
}

// TestStaleRuleAtMigration reconfigures the chain right before the
// rebalance, leaving every consolidated rule stale (old epoch): the
// rebalance must demote those flows — migrate the entry, ship no rule
// — and their next packet re-records via the slow path, matching the
// reference, which applied the identical reconfiguration.
func TestStaleRuleAtMigration(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 16
	establish(t, cl, ref, flows)

	mkPlan := func(name string) core.ChainPlan {
		nf, err := ipfilter.New(ipfilter.Config{Name: name, Rules: ipfilter.PadRules(nil, 10)})
		if err != nil {
			t.Fatal(err)
		}
		return core.ChainPlan{Op: core.OpInsert, Pos: 0, NF: nf}
	}
	if err := cl.Reconfigure(mkPlan("flt-a")); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reconfigure(mkPlan("flt-b")); err != nil {
		t.Fatal(err)
	}
	before := cl.Migrations()
	if _, err := cl.AddInstance(); err != nil {
		t.Fatal(err)
	}
	if cl.Migrations() == before {
		t.Fatal("no flows migrated")
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "re-record after stale move")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 6) }, "fast after re-record")
	}
}

// TestSYNReuseAfterMigration closes a flow, scales out so its home
// slot lands on the new instance, then reuses the exact 5-tuple with
// a fresh SYN: the new owner must record it as a brand-new flow.
func TestSYNReuseAfterMigration(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagFIN|packet.TCPFlagACK, 9, "") }, "fin")
	}
	if _, err := cl.AddInstance(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagSYN, 100, "") }, "reused syn")
		compare(t, cl, ref, func() *packet.Packet { return pkt(f, packet.TCPFlagACK, 101, "") }, "reused ack")
		compare(t, cl, ref, func() *packet.Packet { return data(f, 102) }, "reused data")
	}
}

// TestMigrateBack moves flows A→B (scale out) and immediately B→A
// (scale back in): the double move must be invisible, and the first
// instance must own every flow again.
func TestMigrateBack(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	total := cl.Engine(0).FlowLen()

	name, err := cl.AddInstance()
	if err != nil {
		t.Fatal(err)
	}
	movedOut := cl.Migrations()
	if movedOut == 0 {
		t.Fatal("scale-out moved nothing")
	}
	if err := cl.RemoveInstance(name); err != nil {
		t.Fatal(err)
	}
	if cl.Migrations() != movedOut*2 {
		t.Errorf("expected %d total migrations after drain, got %d", movedOut*2, cl.Migrations())
	}
	if got := cl.Engine(0).FlowLen(); got != total {
		t.Errorf("instance 0 owns %d flows after migrate-back, want %d", got, total)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after migrate-back")
	}
}

// TestMigrationAbortRollsBack drives a rebalance into an injected
// migration abort and asserts complete rollback: the instance set and
// steering table are unchanged, every flow is still owned by its old
// instance, the discarded new instance held no orphan state, no
// engine's epoch moved — and the packet stream cannot tell.
func TestMigrationAbortRollsBack(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 42, Rates: map[fault.Kind]float64{}})
	cl := newTestCluster(t, 1, false, inj)
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)

	flowsBefore := cl.Engine(0).FlowEntries()
	epochBefore := cl.Engine(0).Epoch()

	inj.SetRate(fault.KindMigrationAbort, 1)
	if _, err := cl.AddInstance(); !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("expected ErrMigrationAborted, got %v", err)
	}
	inj.SetRate(fault.KindMigrationAbort, 0)

	if cl.Len() != 1 {
		t.Fatalf("cluster grew to %d despite abort", cl.Len())
	}
	if cl.Aborts() != 1 {
		t.Errorf("aborts = %d, want 1", cl.Aborts())
	}
	if got := cl.Engine(0).Epoch(); got != epochBefore {
		t.Errorf("epoch moved across aborted rebalance: %d -> %d", epochBefore, got)
	}
	after := cl.Engine(0).FlowEntries()
	if len(after) != len(flowsBefore) {
		t.Fatalf("flow count changed: %d -> %d", len(flowsBefore), len(after))
	}
	for i := range after {
		if after[i].FID != flowsBefore[i].FID || after[i].Tuple != flowsBefore[i].Tuple ||
			after[i].State != flowsBefore[i].State || after[i].Packets != flowsBefore[i].Packets {
			t.Fatalf("flow %d changed across aborted rebalance: %+v -> %+v", i, flowsBefore[i], after[i])
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after aborted rebalance")
	}
}

// TestMigrationAbortOrphanSweep aborts a rebalance partway (some
// flows already moved) on a two-instance cluster and asserts the
// rolled-back destination keeps no orphan flow entry or rule for any
// flow it does not own.
func TestMigrationAbortOrphanSweep(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 7, Rates: map[fault.Kind]float64{}})
	cl := newTestCluster(t, 2, false, inj)
	ref := newRefEngine(t, false)
	const flows = 32
	establish(t, cl, ref, flows)

	owned := make([]map[flow.FID]bool, 2)
	for i := 0; i < 2; i++ {
		owned[i] = make(map[flow.FID]bool)
		for _, e := range cl.Engine(i).FlowEntries() {
			owned[i][e.FID] = true
		}
	}

	// A middling abort rate fires after some flows have already moved,
	// exercising the reverse-rollback path rather than first-flow abort.
	inj.SetRate(fault.KindMigrationAbort, 0.2)
	var aborted bool
	for try := 0; try < 20 && !aborted; try++ {
		_, err := cl.AddInstance()
		switch {
		case errors.Is(err, ErrMigrationAborted):
			aborted = true
		case err == nil:
			if rerr := cl.RemoveInstance(cl.Names()[cl.Len()-1]); rerr != nil && !errors.Is(rerr, ErrMigrationAborted) {
				t.Fatal(rerr)
			}
		default:
			t.Fatal(err)
		}
	}
	inj.SetRate(fault.KindMigrationAbort, 0)
	if !aborted {
		t.Skip("abort never fired at 20% over 20 rebalances")
	}
	if cl.Len() != 2 {
		t.Fatalf("cluster at %d instances after aborted scale-out", cl.Len())
	}
	for i := 0; i < 2; i++ {
		ents := cl.Engine(i).FlowEntries()
		if len(ents) != len(owned[i]) {
			t.Fatalf("instance %d owns %d flows after rollback, want %d", i, len(ents), len(owned[i]))
		}
		for _, e := range ents {
			if !owned[i][e.FID] {
				t.Fatalf("instance %d holds foreign flow %v after rollback", i, e.FID)
			}
		}
		// No rules for flows owned elsewhere.
		other := owned[1-i]
		for fid := range other {
			if _, ok := cl.Engine(i).Global().Lookup(fid); ok && !owned[i][fid] {
				t.Fatalf("instance %d holds orphan rule for foreign flow %v", i, fid)
			}
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after orphan sweep")
	}
}

// TestClusterRunMatchesSingleEngine pushes a generated trace through
// Run (the partitioned multi-worker driver) on a static cluster and
// checks aggregate packet/drop accounting against the scalar path.
func TestClusterRunMatchesSingleEngine(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 11, Flows: 40, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := newTestCluster(t, 3, true, nil)
	res, err := cl.Run(tr.Packets(), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := newTestCluster(t, 3, true, nil)
	want, err := ref.RunBatch(tr.Packets(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != want.Packets || res.Drops != want.Drops {
		t.Errorf("Run (4 workers) saw %d/%d packets/drops; serial saw %d/%d",
			res.Packets, res.Drops, want.Packets, want.Drops)
	}
	if len(res.QueueDepths) != 4 {
		t.Errorf("expected 4 worker queue depths, got %v", res.QueueDepths)
	}
}

// TestConcurrentClusterScale is the race hammer: 8 batched workers
// drive partitioned traffic while a scaler loop grows and shrinks the
// cluster and a scraper hammers the status/stats read paths. Run
// under -race; the invariant is zero errors, zero drops (the chain
// has no drop rules) and full packet accounting.
func TestConcurrentClusterScale(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 5, Flows: 120, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub()
	opts := core.DefaultOptions()
	cl, err := New(Config{Chain: testChain(t, true), Options: opts, Instances: 2, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Scaler: walk 2→4→3→2→… until the workers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		targets := []int{4, 3, 2}
		for k := 0; !stop.Load(); k++ {
			if err := cl.ScaleTo(targets[k%len(targets)]); err != nil && !errors.Is(err, ErrMigrationAborted) {
				t.Errorf("scale: %v", err)
				return
			}
		}
	}()

	// Scraper: hammer every read path the daemon exposes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = cl.Stats()
			_ = cl.Instances()
			_ = cl.Len()
			_ = hub.Registry.WritePrometheus(io.Discard)
		}
	}()

	res, err := cl.Run(tr.Packets(), 8, 16)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != tr.Len() {
		t.Errorf("processed %d packets, trace has %d", res.Packets, tr.Len())
	}
	if res.Drops != 0 {
		t.Errorf("%d drops during concurrent scaling; want 0", res.Drops)
	}
}

// TestClusterSoakRebalances replays a long trace in windows with a
// rebalance between every window (≥8 total): zero drops overall, and
// after every rebalance the fast-path hit rate inside the next window
// must recover to ≥90% of packets once re-recording settles.
func TestClusterSoakRebalances(t *testing.T) {
	tr, err := trace.Generate(trace.Config{Seed: 9, Flows: 200, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets()
	cl := newTestCluster(t, 1, false, nil)

	const rebalances = 8
	window := len(pkts) / (rebalances + 1)
	if window == 0 {
		t.Fatal("trace too short")
	}
	var totalDrops int
	sizes := []int{2, 3, 4, 3, 2, 3, 4, 2}
	statsBefore := cl.Stats()
	for w := 0; w <= rebalances; w++ {
		lo := w * window
		hi := lo + window
		if w == rebalances {
			hi = len(pkts)
		}
		res, err := cl.RunBatch(pkts[lo:hi], 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalDrops += res.Drops
		st := cl.Stats()
		delta := st
		delta.Packets -= statsBefore.Packets
		delta.FastPath -= statsBefore.FastPath
		delta.Initial -= statsBefore.Initial
		delta.Handshake -= statsBefore.Handshake
		delta.Final -= statsBefore.Final
		statsBefore = st
		if w > 0 && delta.Packets > 0 {
			// Handshake/initial/final packets legitimately take the
			// slow path; hit rate is over the established remainder.
			eligible := delta.Packets - delta.Initial - delta.Handshake - delta.Final
			if eligible > 0 {
				rate := float64(delta.FastPath) / float64(eligible)
				if rate < 0.9 {
					t.Errorf("window %d: fast-path hit rate %.2f after rebalance, want >= 0.90", w, rate)
				}
			}
		}
		if w < rebalances {
			if err := cl.ScaleTo(sizes[w]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if totalDrops != 0 {
		t.Errorf("%d drops across %d rebalances; want 0", totalDrops, cl.Rebalances())
	}
	if cl.Rebalances() < rebalances {
		t.Errorf("only %d rebalances completed, want >= %d", cl.Rebalances(), rebalances)
	}
	if cl.Migrations() == 0 {
		t.Error("soak migrated nothing")
	}
}

// TestClusterReconfigureFleetWide applies a live chain change on a
// 3-instance cluster and checks every instance lands on the same
// chain composition and epoch, and a later joiner replays it.
func TestClusterReconfigureFleetWide(t *testing.T) {
	cl := newTestCluster(t, 3, false, nil)
	ref := newRefEngine(t, false)
	const flows = 16
	establish(t, cl, ref, flows)

	mk := func(name string) core.ChainPlan {
		nf, err := ipfilter.New(ipfilter.Config{Name: name, Rules: ipfilter.PadRules(nil, 10)})
		if err != nil {
			t.Fatal(err)
		}
		return core.ChainPlan{Op: core.OpInsert, Pos: 1, NF: nf}
	}
	if err := cl.Reconfigure(mk("mid")); err != nil {
		t.Fatal(err)
	}
	if err := ref.Reconfigure(mk("mid-ref")); err != nil {
		t.Fatal(err)
	}
	want := cl.Engine(0).ChainNames()
	epoch := cl.Engine(0).Epoch()
	for i := 1; i < cl.Len(); i++ {
		if got := cl.Engine(i).ChainNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("instance %d chain %v, want %v", i, got, want)
		}
		if got := cl.Engine(i).Epoch(); got != epoch {
			t.Errorf("instance %d epoch %d, want %d", i, got, epoch)
		}
	}
	name, err := cl.AddInstance()
	if err != nil {
		t.Fatal(err)
	}
	joined := cl.Len() - 1
	if got := cl.Engine(joined).ChainNames(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("late joiner %s chain %v, want %v", name, got, want)
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after fleet reconfig")
	}
}

// TestClusterCrashInstance kills an instance mid-trace and checks the
// replacement serves its flows identically to the reference.
func TestClusterCrashInstance(t *testing.T) {
	opts := core.DefaultOptions()
	cl, err := New(Config{Chain: testChain(t, false), Options: opts, Instances: 2, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := newRefEngine(t, false)
	const flows = 24
	establish(t, cl, ref, flows)
	for i := 0; i < 2; i++ {
		if err := cl.CrashInstance(i); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < flows; f++ {
		f := f
		compare(t, cl, ref, func() *packet.Packet { return data(f, 5) }, "data after crash-restore")
	}
}

// TestAdviseInstances pins the autoscale hint's decision table.
func TestAdviseInstances(t *testing.T) {
	cases := []struct {
		cur, min, max int
		depths        []int
		want          int
	}{
		{2, 1, 8, []int{100, 100}, 3}, // hot: scale out
		{2, 1, 8, []int{0, 1}, 1},     // idle: scale in
		{2, 1, 8, []int{16, 16}, 2},   // steady: hold
		{8, 1, 8, []int{100, 100}, 8}, // clamped at max
		{1, 1, 8, []int{0}, 1},        // clamped at min
		{3, 1, 8, nil, 3},             // no signal: hold
	}
	for i, c := range cases {
		if got := AdviseInstances(c.cur, c.min, c.max, c.depths, 2, 64); got != c.want {
			t.Errorf("case %d: AdviseInstances(%d, %v) = %d, want %d", i, c.cur, c.depths, got, c.want)
		}
	}
}

// TestMigrationRecordRoundTripInCluster checks migrated rules really
// travel through the wire encoding on the batch-free chain.
func TestMigrationRecordRoundTripInCluster(t *testing.T) {
	cl := newTestCluster(t, 1, false, nil)
	ref := newRefEngine(t, false)
	establish(t, cl, ref, 24)
	var sawRule bool
	cl.TamperMigration = func(r *wal.MigrationRecord) {
		if r.Rule != nil {
			sawRule = true
		}
	}
	if _, err := cl.AddInstance(); err != nil {
		t.Fatal(err)
	}
	if !sawRule {
		t.Error("no migration record carried a rule on the batch-free chain")
	}
}
