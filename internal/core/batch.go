package core

import (
	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// DefaultBatchSize is the canonical NFV vector size: DPDK, BESS and
// VPP all move packets in 32-packet bursts, amortizing per-packet
// dispatch across the vector.
const DefaultBatchSize = 32

// ruleCacheWays is the associativity of the per-worker rule cache.
// Four entries cover the handful of flows interleaved within one
// 32-packet vector of a realistic trace; a miss only costs the sharded
// map lookup.
const ruleCacheWays = 4

// ruleCacheEntry caches what the data path learns about one flow:
// the live consolidated rule (valid while the Global MAT's mutation
// generation is unchanged) and a "no registered events" verdict (valid
// while the Event Table's registration generation is unchanged).
type ruleCacheEntry struct {
	fid      flow.FID
	used     bool
	rule     *mat.GlobalRule
	ruleGen  uint64
	hasRule  bool
	noEvents bool
	evGen    uint64
}

// RuleCache is a tiny per-worker, generation-validated cache over the
// Global MAT and Event Table (the paper's DPDK prototype keeps the
// analogous last-rule pointer in each lcore's local storage). It must
// not be shared between goroutines; each batch worker owns one inside
// its Batch, and the ONVM manager core owns its own. Correctness does
// not depend on the cache: every hit is revalidated against the source
// table's generation with one atomic load, so any Install, Remove,
// MarkStale or event Register anywhere invalidates all caches, and a
// stale check simply falls back to the locked lookup.
type RuleCache struct {
	entries [ruleCacheWays]ruleCacheEntry
	clock   uint8
}

// Invalidate forgets everything, for tests and for callers that want a
// cold cache between traces.
func (rc *RuleCache) Invalidate() { *rc = RuleCache{} }

// find returns the entry for fid, or nil.
func (rc *RuleCache) find(fid flow.FID) *ruleCacheEntry {
	for i := range rc.entries {
		if rc.entries[i].used && rc.entries[i].fid == fid {
			return &rc.entries[i]
		}
	}
	return nil
}

// slot returns the entry for fid, repurposing the round-robin victim
// (cleared) if the flow is not cached.
func (rc *RuleCache) slot(fid flow.FID) *ruleCacheEntry {
	if en := rc.find(fid); en != nil {
		return en
	}
	en := &rc.entries[rc.clock&(ruleCacheWays-1)]
	rc.clock++
	*en = ruleCacheEntry{fid: fid, used: true}
	return en
}

// noEventsValid reports a still-valid "flow has no registered events"
// verdict.
func (rc *RuleCache) noEventsValid(e *Engine, fid flow.FID) bool {
	en := rc.find(fid)
	return en != nil && en.noEvents && en.evGen == e.events.RegGen()
}

// putNoEvents caches the no-events verdict observed at registration
// generation evGen.
func (rc *RuleCache) putNoEvents(fid flow.FID, evGen uint64) {
	en := rc.slot(fid)
	en.noEvents = true
	en.evGen = evGen
}

// lookupRule is LookupLive behind the per-worker cache: a
// generation-valid hit returns the cached rule pointer without
// touching the sharded map; a miss performs the locked lookup and
// caches the result stamped with the generation read *before* the
// lookup, so a racing mutation can only make the entry conservatively
// stale, never serve a rule newer than its stamp.
func (e *Engine) lookupRule(fid flow.FID, rc *RuleCache) (*mat.GlobalRule, bool) {
	gen := e.global.Gen()
	if en := rc.find(fid); en != nil && en.hasRule && en.ruleGen == gen {
		return en.rule, true
	}
	rule, ok := e.global.LookupLive(fid)
	if ok {
		en := rc.slot(fid)
		en.rule = rule
		en.ruleGen = gen
		en.hasRule = true
	}
	return rule, ok
}

// statsDelta accumulates one shard's counter increments in plain
// (non-atomic) fields; fold adds each non-zero delta into the shared
// shard with one atomic add per touched counter, so a vector pays a
// few atomic adds per shard instead of several per packet.
type statsDelta struct {
	packets, initial, subsequent, handshake, final uint64
	fastPath, slowPath, dropped                    uint64
	eventsFired, consolidations                    uint64
}

// add counts one finished packet.
func (d *statsDelta) add(res *PacketResult) {
	d.packets++
	switch res.Kind {
	case classifier.KindInitial:
		d.initial++
	case classifier.KindSubsequent:
		d.subsequent++
	case classifier.KindHandshake:
		d.handshake++
	case classifier.KindFinal:
		d.final++
	}
	if res.Path == PathFast {
		d.fastPath++
	} else {
		d.slowPath++
	}
	if res.Verdict == VerdictDrop {
		d.dropped++
	}
	if res.Fast != nil {
		d.eventsFired += uint64(res.Fast.EventsFired)
	}
	if res.Slow != nil && res.Slow.ConsolidateCycles > 0 {
		d.consolidations++
	}
}

// fold adds the delta into the shard's counters and clears it.
func (s *statsShard) fold(d *statsDelta) {
	s.packets.Add(d.packets)
	if d.initial != 0 {
		s.initial.Add(d.initial)
	}
	if d.subsequent != 0 {
		s.subsequent.Add(d.subsequent)
	}
	if d.handshake != 0 {
		s.handshake.Add(d.handshake)
	}
	if d.final != 0 {
		s.final.Add(d.final)
	}
	if d.fastPath != 0 {
		s.fastPath.Add(d.fastPath)
	}
	if d.slowPath != 0 {
		s.slowPath.Add(d.slowPath)
	}
	if d.dropped != 0 {
		s.dropped.Add(d.dropped)
	}
	if d.eventsFired != 0 {
		s.eventsFired.Add(d.eventsFired)
	}
	if d.consolidations != 0 {
		s.consolidations.Add(d.consolidations)
	}
	*d = statsDelta{}
}

// flowCacheWays is the associativity of the per-worker flow-handle
// cache, matching the rule cache: the flows interleaved within one
// vector.
const flowCacheWays = 4

// flowSlot caches one flow's table handle keyed by 5-tuple, plus the
// batch-local bookkeeping deltas folded into the flow entry at flush:
// the steady-state per-packet flow touch is then a tuple compare, two
// generation/state loads and plain integer adds — no lock, no map, no
// per-packet atomic read-modify-write.
type flowSlot struct {
	// kHi/kLo are the packed flow key (packet.FlowKey) the hot probe
	// compares; tuple is the same key unpacked, kept for re-acquiring
	// the handle when the table generation moves.
	kHi, kLo uint64
	tuple    packet.FiveTuple
	h        flow.Handle
	gen      uint64
	used     bool
	dirty    bool
	// Folded established-data bookkeeping: packet and byte counts,
	// and the logical-clock tick of the flow's most recent packet.
	dPkts    uint64
	dBytes   uint64
	lastTick uint64
}

// flush folds the slot's pending bookkeeping into the flow entry.
func (sl *flowSlot) flush() {
	if !sl.dirty {
		return
	}
	sl.h.FoldTouches(sl.dPkts, sl.dBytes, sl.lastTick)
	sl.dPkts, sl.dBytes, sl.dirty = 0, 0, false
}

// Batch is the per-worker scratch state of the data path: the
// rule and flow-handle caches, preallocated result storage, the
// per-packet classification scratch (structure-of-arrays, so the
// classify and process loops each stream through contiguous memory),
// and the counter-fold buffers. A Batch must not be shared between
// goroutines (each MultiQueue worker owns one, and ProcessPacket draws
// one from a per-engine pool); results returned by ProcessBatch point
// into the Batch's storage and are valid only until the next call on
// the same Batch.
type Batch struct {
	cache  RuleCache
	flows  [flowCacheWays]flowSlot
	fclock uint8

	res  []PacketResult
	info []FastPathInfo
	out  []*PacketResult

	// Per-packet classification scratch for the current vector,
	// indexed by packet position: the FID and the flow-cache slot it
	// resolved to.
	delta [statsShardCount]statsDelta
	dirty []uint32

	// flowHits/flowMisses count flow-handle cache outcomes across the
	// batch, folded into the engine counters at flush.
	flowHits   uint64
	flowMisses uint64

	// telVal/telN/telHint fold the fast-path latency histogram: a run
	// of packets with identical modeled work collapses into one RecordN.
	telVal  uint64
	telN    uint64
	telHint uint32
}

// NewBatch returns batch scratch sized for n-packet vectors (0 picks
// DefaultBatchSize). The storage grows on demand if larger vectors
// arrive.
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = DefaultBatchSize
	}
	return &Batch{
		res:   make([]PacketResult, n),
		info:  make([]FastPathInfo, n),
		out:   make([]*PacketResult, 0, n),
		dirty: make([]uint32, 0, statsShardCount),
	}
}

// begin resets the per-vector storage for n packets. The rule and
// flow caches deliberately survive across vectors — that is where the
// amortization for repeated flows comes from.
func (b *Batch) begin(n int) {
	if cap(b.res) < n {
		b.res = make([]PacketResult, n)
		b.info = make([]FastPathInfo, n)
	}
	b.res = b.res[:n]
	b.info = b.info[:n]
	for i := 0; i < n; i++ {
		b.res[i] = PacketResult{}
		b.info[i] = FastPathInfo{}
	}
	b.out = b.out[:0]
}

// flushFlows folds every flow slot's pending bookkeeping into the
// flow table. It must run before any code that reads or rewrites a
// flow entry through the locked paths (full classification, the slow
// path, teardown) and at end of batch.
func (b *Batch) flushFlows() {
	for i := range b.flows {
		b.flows[i].flush()
	}
}

// flowSlotFor resolves a packet's flow key to a flow-cache slot,
// acquiring (or revalidating) the table handle as needed. The hot
// probe compares the packed two-word key; the FiveTuple struct is only
// built on the acquire paths. The table generation is read before
// every acquire, so a racing removal can only leave the slot
// conservatively stale. It reports ok=false when the flow is not
// tracked — the caller falls back to full classification.
func (b *Batch) flowSlotFor(flows *flow.Table, pkt *packet.Packet, kHi, kLo uint64) (uint8, bool) {
	gen := flows.Gen()
	for i := range b.flows {
		sl := &b.flows[i]
		if !sl.used || sl.kHi != kHi || sl.kLo != kLo {
			continue
		}
		if sl.gen == gen {
			b.flowHits++
			return uint8(i), true
		}
		// The table mutated since the handle was cached: pending
		// deltas belong to the old entry, so fold them through the
		// old handle before re-acquiring.
		sl.flush()
		h, ok := flows.Acquire(sl.tuple)
		if !ok {
			sl.used = false
			return 0, false
		}
		sl.h, sl.gen = h, gen
		b.flowHits++
		return uint8(i), true
	}
	b.flowMisses++
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, false
	}
	h, ok := flows.Acquire(ft)
	if !ok {
		return 0, false
	}
	v := b.fclock & (flowCacheWays - 1)
	b.fclock++
	sl := &b.flows[v]
	sl.flush()
	*sl = flowSlot{kHi: kHi, kLo: kLo, tuple: ft, h: h, gen: gen, used: true}
	return v, true
}

// account folds one finished packet into the batch-local deltas and
// telemetry run-length buffers (the vector counterpart of
// Engine.Account).
func (b *Batch) account(e *Engine, res *PacketResult) {
	shard := uint32(res.FID) & (statsShardCount - 1)
	d := &b.delta[shard]
	if d.packets == 0 {
		b.dirty = append(b.dirty, shard)
	}
	d.add(res)
	if e.tel == nil {
		return
	}
	if res.Path != PathFast {
		// Slow-path packets are rare within a batch and carry per-NF
		// stage detail; record them individually.
		e.tel.accountPacket(res)
		return
	}
	// Fast-path latency: fold runs of identical work values into one
	// histogram record per batch slot.
	if b.telN > 0 && res.WorkCycles == b.telVal {
		b.telN++
		return
	}
	b.flushTel(e)
	b.telVal = res.WorkCycles
	b.telN = 1
	b.telHint = uint32(res.FID)
}

// flushTel records any pending fast-path latency run.
func (b *Batch) flushTel(e *Engine) {
	if b.telN == 0 || e.tel == nil {
		return
	}
	e.tel.fastLat.RecordN(b.telVal, b.telN, b.telHint)
	b.telN = 0
}

// flushStats folds the batch-local counter deltas into the shared
// sharded counters, after folding pending flow bookkeeping.
func (e *Engine) flushStats(b *Batch) {
	b.flushFlows()
	b.flushTel(e)
	if b.flowHits != 0 || b.flowMisses != 0 {
		// Cache hit rates are implementation telemetry, not behavior:
		// they go to the hub, never into the oracle-compared Stats.
		if e.tel != nil {
			e.tel.flowCacheHits.Add(b.flowHits)
			e.tel.flowCacheMisses.Add(b.flowMisses)
		}
		b.flowHits, b.flowMisses = 0, 0
	}
	for _, shard := range b.dirty {
		e.stats[shard].fold(&b.delta[shard])
	}
	b.dirty = b.dirty[:0]
}

// ProcessBatch classifies and processes a vector of packets in arrival
// order. It is the engine's only packet router (ProcessPacket is a
// vector of one): classification of plain data packets takes a
// single-lock fast path, consolidated-rule and event-table lookups are
// served from the Batch's generation-validated cache, results are
// written into preallocated storage, and counters and the fast-path
// latency histogram are folded into a few updates per vector.
//
// Arrival order is preserved across the whole vector (no grouping or
// sorting): NFs keep cross-flow state (rate limiters, DoS counters),
// so reordering could change verdicts, and the vector size never
// changes what a packet observes — the differential oracle checks
// every size against a one-packet reference. Returned results point
// into the Batch and are valid until its next use; processing stops
// at the first failing packet.
func (e *Engine) ProcessBatch(pkts []*packet.Packet, b *Batch) ([]*PacketResult, error) {
	b.begin(len(pkts))
	out := b.out
	for i, pkt := range pkts {
		res, err := e.route(pkt, &b.info[i], &b.res[i], b)
		if err != nil {
			e.flushStats(b)
			return nil, err
		}
		b.account(e, res)
		out = append(out, res)
	}
	b.out = out
	e.flushStats(b)
	return out, nil
}

// classifyFast classifies one fast-shaped packet — a plain data packet
// (no SYN/FIN/RST) of an established, tracked flow — through the
// Batch's flow-handle cache: a tuple compare, a generation load and a
// state load replace full classification's lock acquisition and map
// probe. Per-flow bookkeeping folds into the flow slot (flushed at
// batch boundaries and before any locked flow-table access); the
// logical clock ticks once per packet, exactly as full classification
// would, so clock-deadline reads during processing (the degradation
// ladder's backoff arithmetic) observe the same values either way.
//
// For every other packet shape it reports ok=false without mutating
// the flow table or consuming a clock tick, and the caller classifies
// the packet in full.
func (e *Engine) classifyFast(pkt *packet.Packet, b *Batch) (flow.FID, bool) {
	if !pkt.Parsed() {
		if err := pkt.Parse(); err != nil {
			return 0, false // full Classify reproduces the error
		}
	}
	if flags, isTCP := pkt.TCPFlags(); isTCP &&
		flags&(packet.TCPFlagSYN|packet.TCPFlagFIN|packet.TCPFlagRST) != 0 {
		return 0, false
	}
	kHi, kLo, ok := pkt.FlowKey()
	if !ok {
		return 0, false
	}
	si, ok := b.flowSlotFor(e.class.Flows(), pkt, kHi, kLo)
	if !ok {
		return 0, false
	}
	sl := &b.flows[si]
	if !sl.h.Established() {
		return 0, false
	}
	sl.dPkts++
	sl.dBytes += uint64(pkt.Len())
	sl.lastTick = e.class.SeqClock().Add(1)
	sl.dirty = true
	fid := sl.h.FID()
	pkt.Meta.FID = uint32(fid)
	pkt.Meta.HasFID = true
	return fid, true
}

// route classifies one packet of a vector and runs it down its path.
// A SpeedyBox engine classifies fast-shaped packets through the flow
// cache; every other packet, and every packet of the baseline engine,
// takes the full locked Classify once the pending flow bookkeeping is
// folded. After classification the decision sequence is the same for
// both: the eviction-pressure fault, then Subsequent (fast path),
// Final (fast or slow path, then teardown), Initial (recording slow
// path) or Handshake (slow path). The fast path writes into info and
// res; slow-path results are allocated.
func (e *Engine) route(pkt *packet.Packet, info *FastPathInfo, res *PacketResult, b *Batch) (*PacketResult, error) {
	var (
		fid  flow.FID
		kind classifier.Kind
		fast bool
	)
	if e.opts.EnableSpeedyBox {
		fid, fast = e.classifyFast(pkt, b)
	}
	if fast {
		// The classifier's hasRule probe: it runs before the eviction
		// fault, so a rule evicted right after classification leaves a
		// Subsequent packet falling back to the slow path rather than
		// re-recording as Initial.
		kind = classifier.KindSubsequent
		if _, ok := e.lookupRule(fid, &b.cache); !ok {
			kind = classifier.KindInitial
			pkt.Meta.Initial = true
		}
	} else {
		b.flushFlows()
		cls, err := e.Classify(pkt)
		if err != nil {
			return nil, err
		}
		fid, kind = cls.FID, cls.Kind
	}

	// Fault: flow-table eviction pressure — the MAT "ran out of
	// space" for this flow. Consolidated state is evicted (the next
	// packet re-records); flow tracking and NF-internal state survive,
	// exactly as a real table eviction leaves them.
	if e.faults != nil && e.opts.EnableSpeedyBox &&
		e.faults.Should(fault.KindEvictPressure, fid) {
		e.evictConsolidated(fid)
	}

	var (
		r   *PacketResult
		err error
	)
	switch kind {
	case classifier.KindSubsequent:
		r, err = e.fastPathInto(fid, pkt, info, res, &b.cache)
	case classifier.KindFinal:
		if e.opts.EnableSpeedyBox && e.hasRule(fid) {
			r, err = e.fastPathInto(fid, pkt, info, res, &b.cache)
		} else {
			r, err = e.slowPath(fid, pkt, false)
		}
		if err == nil {
			e.teardown(fid, CauseFinTeardown)
			r.TornDown = true
		}
	case classifier.KindInitial:
		// The slow path drives the original chain and may observe flow
		// entries, so pending folded bookkeeping is flushed first. Claim
		// the flow's recording slot: if another packet of this flow is
		// recording concurrently, traverse without recording. A degraded
		// flow may only retry recording once its backoff deadline
		// passes; until then its packets stay on the slow path without
		// burning consolidation work.
		b.flushFlows()
		recording := false
		if e.opts.EnableSpeedyBox {
			if e.recordingAllowed(fid) {
				recording = e.TryBeginRecording(fid)
			} else {
				e.countDegradedPacket(fid)
			}
		}
		r, err = e.slowPath(fid, pkt, recording)
		if recording {
			e.EndRecording(fid)
		}
	default: // KindHandshake
		r, err = e.slowPath(fid, pkt, false)
	}
	if err != nil {
		return nil, err
	}
	r.FID = fid
	r.Kind = kind
	return r, nil
}
