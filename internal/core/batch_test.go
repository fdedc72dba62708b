package core

import (
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// runScalar replays pkts one ProcessPacket at a time, collecting
// value copies of the results.
func runScalar(t *testing.T, eng *Engine, pkts []*packet.Packet) []PacketResult {
	t.Helper()
	out := make([]PacketResult, 0, len(pkts))
	for i, p := range pkts {
		r, err := eng.ProcessPacket(p)
		if err != nil {
			t.Fatalf("scalar packet %d: %v", i, err)
		}
		out = append(out, *r)
	}
	return out
}

// runBatched replays pkts through ProcessBatch in vec-sized vectors,
// copying results out of the Batch's reused storage before the next
// vector overwrites it.
func runBatched(t *testing.T, eng *Engine, pkts []*packet.Packet, vec int) []PacketResult {
	t.Helper()
	b := NewBatch(vec)
	out := make([]PacketResult, 0, len(pkts))
	for off := 0; off < len(pkts); off += vec {
		end := off + vec
		if end > len(pkts) {
			end = len(pkts)
		}
		rs, err := eng.ProcessBatch(pkts[off:end], b)
		if err != nil {
			t.Fatalf("batch at offset %d: %v", off, err)
		}
		for _, r := range rs {
			out = append(out, *r)
		}
	}
	return out
}

// compareRuns asserts packet-for-packet agreement on everything the
// data path decides: classification kind, path taken, verdict and the
// modeled work.
func compareRuns(t *testing.T, scalar, batched []PacketResult) {
	t.Helper()
	if len(scalar) != len(batched) {
		t.Fatalf("result counts differ: scalar %d, batched %d", len(scalar), len(batched))
	}
	for i := range scalar {
		s, b := &scalar[i], &batched[i]
		if s.FID != b.FID || s.Kind != b.Kind || s.Path != b.Path || s.Verdict != b.Verdict {
			t.Errorf("packet %d: scalar {fid=%v kind=%v path=%v verdict=%v} batched {fid=%v kind=%v path=%v verdict=%v}",
				i, s.FID, s.Kind, s.Path, s.Verdict, b.FID, b.Kind, b.Path, b.Verdict)
		}
		if s.WorkCycles != b.WorkCycles {
			t.Errorf("packet %d: work cycles scalar %d, batched %d", i, s.WorkCycles, b.WorkCycles)
		}
	}
}

// mixedTrace builds an interleave of two TCP flows (full handshakes)
// and two UDP flows, fresh copies each call so scalar and batched
// engines each mutate their own packets.
func mixedTrace(t *testing.T) []*packet.Packet {
	t.Helper()
	var pkts []*packet.Packet
	for _, port := range []uint16{7101, 7102} {
		pkts = append(pkts,
			tcpPkt(t, port, packet.TCPFlagSYN, 0, ""),
			tcpPkt(t, port, packet.TCPFlagACK, 1, ""))
	}
	for i := 0; i < 20; i++ {
		pkts = append(pkts,
			tcpPkt(t, 7101, packet.TCPFlagACK, 2+i, "alpha data"),
			udpPkt(t, 7201, "udp one"),
			tcpPkt(t, 7102, packet.TCPFlagACK, 2+i, "beta data"),
			udpPkt(t, 7202, "udp two"))
	}
	pkts = append(pkts,
		tcpPkt(t, 7101, packet.TCPFlagFIN|packet.TCPFlagACK, 22, ""),
		tcpPkt(t, 7102, packet.TCPFlagFIN|packet.TCPFlagACK, 22, ""))
	return pkts
}

func newBatchTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := NewEngine([]NF{
		&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}},
		&fakeCounter{name: "monitor"},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestProcessBatchMatchesScalar: the same mixed trace — handshakes,
// FINs, initial packets, fast-path runs — through a scalar engine and
// a batched one must agree on every per-packet decision and on the
// final aggregate counters.
func TestProcessBatchMatchesScalar(t *testing.T) {
	for _, vec := range []int{1, 3, 8, 32} {
		scalarEng := newBatchTestEngine(t, DefaultOptions())
		batchEng := newBatchTestEngine(t, DefaultOptions())
		scalar := runScalar(t, scalarEng, mixedTrace(t))
		batched := runBatched(t, batchEng, mixedTrace(t), vec)
		compareRuns(t, scalar, batched)
		if s, b := scalarEng.Stats(), batchEng.Stats(); s != b {
			t.Errorf("vec=%d: stats diverge\nscalar:  %+v\nbatched: %+v", vec, s, b)
		}
	}
}

// TestProcessBatchBaselineMatchesScalar: the baseline engine runs the
// same router through full classification only; its vectors must equal
// its per-packet results, stay on the original-chain path and fold the
// same counters.
func TestProcessBatchBaselineMatchesScalar(t *testing.T) {
	for _, vec := range []int{1, 8, 32} {
		scalarEng := newBatchTestEngine(t, BaselineOptions())
		batchEng := newBatchTestEngine(t, BaselineOptions())
		scalar := runScalar(t, scalarEng, mixedTrace(t))
		batched := runBatched(t, batchEng, mixedTrace(t), vec)
		compareRuns(t, scalar, batched)
		for i := range batched {
			if batched[i].Path != PathSlow {
				t.Fatalf("vec=%d packet %d: baseline engine took %v", vec, i, batched[i].Path)
			}
		}
		if s, b := scalarEng.Stats(), batchEng.Stats(); s != b {
			t.Errorf("vec=%d: stats diverge\nscalar:  %+v\nbatched: %+v", vec, s, b)
		}
	}
}

// TestProcessPacketResultOwned: ProcessPacket runs on a pooled Batch,
// so its result — Fast info included — must be a copy that later calls
// on the same engine cannot overwrite.
func TestProcessPacketResultOwned(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	if _, err := eng.ProcessPacket(udpPkt(t, 8901, "install")); err != nil {
		t.Fatal(err)
	}
	first, err := eng.ProcessPacket(udpPkt(t, 8901, "fast"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Path != PathFast || first.Fast == nil {
		t.Fatalf("second packet took %v, want the fast path", first.Path)
	}
	want, wantInfo := *first, *first.Fast
	// Later packets of the same flow (fast) and of other flows (initial:
	// slow) reuse the pooled Batch's storage; a slow-path call last
	// leaves that storage zeroed.
	for i := 0; i < 8; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 8901, "again")); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ProcessPacket(udpPkt(t, uint16(8902+i), "other")); err != nil {
			t.Fatal(err)
		}
	}
	if first.Fast == nil || *first.Fast != wantInfo {
		t.Fatalf("Fast info changed under later calls: %+v, want %+v", first.Fast, wantInfo)
	}
	got := *first
	got.Fast, want.Fast = nil, nil
	if got != want {
		t.Fatalf("result changed under later calls: %+v, want %+v", got, want)
	}
}

// TestProcessPacketFastPathAllocs: a fast-path ProcessPacket allocates
// only the caller-owned copies of its result and Fast info.
func TestProcessPacketFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled Batches at random")
	}
	eng := newBatchTestEngine(t, DefaultOptions())
	if _, err := eng.ProcessPacket(udpPkt(t, 9001, "install")); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	pkts := make([]*packet.Packet, runs+1) // AllocsPerRun adds a warm-up call
	for i := range pkts {
		pkts[i] = udpPkt(t, 9001, "fast")
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := eng.ProcessPacket(pkts[next])
		next++
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != PathFast {
			t.Fatalf("packet %d took %v, want the fast path", next, res.Path)
		}
	})
	if allocs > 2 {
		t.Fatalf("fast-path ProcessPacket: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestProcessBatchMixedRecordedUnrecorded: one vector holding fast-path
// packets of a consolidated flow interleaved with a brand-new flow. The
// new flow's first packet must record over the slow path and its second
// packet — still in the same vector — must already ride the fast path.
func TestProcessBatchMixedRecordedUnrecorded(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	// Consolidate flow A with one initial packet.
	if _, err := eng.ProcessPacket(udpPkt(t, 8101, "warm")); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(8)
	vec := []*packet.Packet{
		udpPkt(t, 8101, "a1"), // recorded: fast
		udpPkt(t, 8102, "b1"), // unrecorded: initial, slow
		udpPkt(t, 8101, "a2"), // fast
		udpPkt(t, 8102, "b2"), // now consolidated: fast, same vector
	}
	rs, err := eng.ProcessBatch(vec, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind classifier.Kind
		path Path
	}{
		{classifier.KindSubsequent, PathFast},
		{classifier.KindInitial, PathSlow},
		{classifier.KindSubsequent, PathFast},
		{classifier.KindSubsequent, PathFast},
	}
	for i, w := range want {
		if rs[i].Kind != w.kind || rs[i].Path != w.path {
			t.Errorf("packet %d: kind=%v path=%v, want kind=%v path=%v",
				i, rs[i].Kind, rs[i].Path, w.kind, w.path)
		}
	}
}

// TestProcessBatchDropMidBatch: a dropping chain must report the drop
// verdict for every packet of the vector — the consolidated rule drops
// on the fast path from the second packet on — with aggregate drop
// counters matching the scalar run.
func TestProcessBatchDropMidBatch(t *testing.T) {
	mk := func() *Engine {
		eng, err := NewEngine([]NF{&fakeDropper{name: "acl"}}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	trace := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 12; i++ {
			pkts = append(pkts, udpPkt(t, 8301, "doomed"))
		}
		return pkts
	}
	scalarEng, batchEng := mk(), mk()
	scalar := runScalar(t, scalarEng, trace())
	batched := runBatched(t, batchEng, trace(), 8)
	compareRuns(t, scalar, batched)
	for i, r := range batched {
		if r.Verdict != VerdictDrop {
			t.Errorf("packet %d: verdict %v, want drop", i, r.Verdict)
		}
	}
	if st := batchEng.Stats(); st.Dropped != 12 {
		t.Errorf("dropped = %d, want 12", st.Dropped)
	}
}

// TestProcessBatchStaleRuleMidBatch: an event firing on one packet of a
// vector rewrites the flow's rule; the very next packet of the same
// vector must see the updated rule even though the worker's cache still
// holds the pre-update pointer — the generation check forces the
// re-lookup.
func TestProcessBatchStaleRuleMidBatch(t *testing.T) {
	evt := &fakeEventNF{name: "lb"}
	mkEng := func(e *fakeEventNF) *Engine {
		eng, err := NewEngine([]NF{e}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := mkEng(evt)
	// Consolidate, then take one fast-path packet to warm the cache.
	if _, err := eng.ProcessPacket(udpPkt(t, 8401, "warm")); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	if _, err := eng.ProcessBatch([]*packet.Packet{udpPkt(t, 8401, "cached")}, b); err != nil {
		t.Fatal(err)
	}
	// Arm the event: the next fast-path packet fires it, the Update
	// flips the rule to drop, and the reinstall bumps the MAT
	// generation.
	evt.armed.Store(true)
	rs, err := eng.ProcessBatch([]*packet.Packet{
		udpPkt(t, 8401, "fires event"),
		udpPkt(t, 8401, "must see drop"),
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	// Differential check against a scalar engine driven identically.
	evt2 := &fakeEventNF{name: "lb"}
	eng2 := mkEng(evt2)
	if _, err := eng2.ProcessPacket(udpPkt(t, 8401, "warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.ProcessPacket(udpPkt(t, 8401, "cached")); err != nil {
		t.Fatal(err)
	}
	evt2.armed.Store(true)
	want := runScalar(t, eng2, []*packet.Packet{
		udpPkt(t, 8401, "fires event"),
		udpPkt(t, 8401, "must see drop"),
	})
	for i := range want {
		if rs[i].Verdict != want[i].Verdict || rs[i].Path != want[i].Path {
			t.Errorf("packet %d: batched {path=%v verdict=%v}, scalar {path=%v verdict=%v}",
				i, rs[i].Path, rs[i].Verdict, want[i].Path, want[i].Verdict)
		}
	}
	if rs[1].Verdict != VerdictDrop {
		t.Errorf("post-event packet verdict = %v, want drop (stale cached rule served?)", rs[1].Verdict)
	}
}

// TestProcessBatchFaultedMatchesScalar: under full eviction pressure
// (every data packet's rule evicted right after classification) the
// batched engine must degrade identically to the scalar one — same
// paths, same fallback counters — with the fault decision taken at the
// same point in the per-packet sequence.
func TestProcessBatchFaultedMatchesScalar(t *testing.T) {
	rates := map[fault.Kind]float64{fault.KindEvictPressure: 1.0}
	mk := func() *Engine {
		eng, err := NewEngine([]NF{
			&fakeModifier{name: "nat", dip: [4]byte{99, 0, 0, 1}},
		}, func() Options {
			o := DefaultOptions()
			o.Faults = fault.New(fault.Config{Seed: 42, Rates: rates})
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	trace := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 24; i++ {
			pkts = append(pkts, udpPkt(t, 8501, "pressured"), udpPkt(t, 8502, "pressured"))
		}
		return pkts
	}
	scalarEng, batchEng := mk(), mk()
	scalar := runScalar(t, scalarEng, trace())
	batched := runBatched(t, batchEng, trace(), 32)
	compareRuns(t, scalar, batched)
	s, b := scalarEng.Stats(), batchEng.Stats()
	if s != b {
		t.Errorf("stats diverge under eviction pressure\nscalar:  %+v\nbatched: %+v", s, b)
	}
	if b.FastPath != 0 {
		t.Errorf("fast-path packets = %d with every rule evicted, want 0", b.FastPath)
	}
}

// TestRuleCacheGenerationValidation exercises the cache directly: a hit
// returns the cached pointer without a map lookup, any MAT mutation
// invalidates it, and Invalidate forgets everything.
func TestRuleCacheGenerationValidation(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	res, err := eng.ProcessPacket(udpPkt(t, 8701, "install"))
	if err != nil {
		t.Fatal(err)
	}
	fid := res.FID
	var rc RuleCache

	r1, ok := eng.lookupRule(fid, &rc)
	if !ok || r1 == nil {
		t.Fatal("no rule after consolidation")
	}
	r2, ok := eng.lookupRule(fid, &rc)
	if !ok || r2 != r1 {
		t.Fatalf("cache hit returned %p, want cached %p", r2, r1)
	}

	// MarkStale bumps the generation; a live lookup must now miss (the
	// rule disagrees with recorded actions) rather than serve the
	// cached pointer.
	if !eng.Global().MarkStale(fid) {
		t.Fatal("MarkStale found no rule")
	}
	if _, ok := eng.lookupRule(fid, &rc); ok {
		t.Fatal("stale rule served from cache after MarkStale")
	}

	rc.Invalidate()
	for i := range rc.entries {
		if rc.entries[i].used {
			t.Fatal("Invalidate left a used entry")
		}
	}
}

// TestRuleCacheEviction: a 4-way cache holding 4 flows must evict the
// round-robin victim when a fifth arrives, and keep serving the
// survivors.
func TestRuleCacheEviction(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	var rc RuleCache
	for i := 0; i < 5; i++ {
		res, err := eng.ProcessPacket(udpPkt(t, uint16(8801+i), "install"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.lookupRule(res.FID, &rc); !ok {
			t.Fatalf("flow %d: no rule after consolidation", i)
		}
	}
	used := 0
	for i := range rc.entries {
		if rc.entries[i].used {
			used++
		}
	}
	if used != ruleCacheWays {
		t.Fatalf("cache holds %d entries, want %d", used, ruleCacheWays)
	}
}
