package mat

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// GlobalRule is one consolidated fast-path rule: the single header
// action equivalent to the whole chain, plus the state-function
// execution plan.
type GlobalRule struct {
	// FID identifies the flow.
	FID flow.FID
	// Drop is the consolidated verdict: the packet is dropped at the
	// head of the chain (early packet drop, redundancy R2).
	Drop bool
	// Modifies are the merged field rewrites in first-touch order.
	Modifies []FieldValue
	// Stack is the residual encap/decap work.
	Stack StackOps
	// Batches are the per-NF state-function batches in chain order.
	// For dropped flows these are the batches of NFs up to and
	// including the dropping NF, so internal state (e.g. Monitor
	// counters upstream of a Firewall) evolves exactly as on the
	// original path.
	Batches []sfunc.Batch
	// Plan is the Table-I parallel schedule over Batches.
	Plan sfunc.Schedule
	// SourceNFs is how many NFs contributed, which sizes the
	// fast-path rule metadata (cost model's FastPathPerHA).
	SourceNFs int
	// Sources summarizes each contributing NF's header work, used by
	// the cost model to price the un-consolidated baseline in the
	// header-consolidation ablation (Figure 7).
	Sources []SourceSummary
	// Version counts reconsolidations triggered by events.
	Version uint64
	// Epoch is the chain epoch the rule was consolidated under. A rule
	// whose epoch differs from the table's current epoch encodes a
	// retired chain layout: LookupLive refuses it even before the
	// post-reconfiguration sweep reaches its shard.
	Epoch uint64
	// Prog is the compiled action program: the rule's header work
	// (residual decaps, encaps, merged modifies, checksum refresh)
	// flattened into one opcode+immediate byte stream at consolidation
	// time, executed per packet by ExecHeader's small loop instead of
	// interpreting the three slices above. Nil means not compiled
	// (hand-built rules, rules decoded from an old WAL); ExecHeader
	// then falls back to ApplyHeader, the reference implementation.
	Prog []byte
}

// ApplyHeader performs the consolidated header work on a packet:
// residual decaps, residual encaps, merged modifies, then a single
// checksum refresh. It returns false when the verdict is drop.
// State-function execution is separate (the engine runs the Plan).
func (r *GlobalRule) ApplyHeader(pkt *packet.Packet) (alive bool, err error) {
	if r.Drop {
		pkt.Drop()
		return false, nil
	}
	touched := false
	for _, t := range r.Stack.Decaps {
		if err := pkt.Decap(t); err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
		touched = true
	}
	for _, h := range r.Stack.Encaps {
		if err := pkt.Encap(h); err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
		touched = true
	}
	for _, m := range r.Modifies {
		if err := pkt.Set(m.Field, m.Value); err != nil {
			return false, fmt.Errorf("mat: global rule %v: %w", r.FID, err)
		}
		touched = true
	}
	if touched {
		if err := pkt.FinalizeChecksums(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// HeaderWork summarizes the rule's header effort for the cost model:
// the number of field rewrites and stack operations, and whether a
// checksum refresh is needed.
func (r *GlobalRule) HeaderWork() (modifies, stackOps int, checksum bool) {
	modifies = len(r.Modifies)
	stackOps = len(r.Stack.Decaps) + len(r.Stack.Encaps)
	return modifies, stackOps, modifies > 0 || stackOps > 0
}

// String renders the rule in the paper's Figure-1 notation, e.g.
// "fid:00001 -> modify(DIP,DPort) + 2 SF batches [v0]".
func (r *GlobalRule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v -> ", r.FID)
	switch {
	case r.Drop:
		b.WriteString("drop")
	case len(r.Modifies) == 0 && r.Stack.Empty():
		b.WriteString("forward")
	default:
		if len(r.Modifies) > 0 {
			fields := make([]string, len(r.Modifies))
			for i, m := range r.Modifies {
				fields[i] = m.Field.String()
			}
			fmt.Fprintf(&b, "modify(%s)", strings.Join(fields, ","))
		}
		for _, t := range r.Stack.Decaps {
			fmt.Fprintf(&b, " decap(%v)", t)
		}
		for _, h := range r.Stack.Encaps {
			fmt.Fprintf(&b, " encap(%v)", h.Type)
		}
	}
	if n := len(r.Batches); n > 0 {
		fmt.Fprintf(&b, " + %d SF batch(es) in %d stage(s)", n, len(r.Plan.Stages))
	}
	fmt.Fprintf(&b, " [v%d]", r.Version)
	return b.String()
}

// ShardCount is the number of independently locked Global MAT shards,
// indexed by the FID's low bits. A power of two keeps the shard index
// a mask away; sharding lets the multi-queue platform's workers look
// up rules for disjoint flows without touching a shared lock.
const ShardCount = 32

const shardMask = ShardCount - 1

// shardBits is log2(ShardCount): the FID bits consumed by shard
// selection, skipped by the in-shard slot hash.
const shardBits = 5

// ruleSlot is one slot of a shard's open-addressing table: the rule,
// its key, and the per-rule flags that LookupLive consults (staleness
// rides in the slot, not a side map, so the lock-free read path
// resolves liveness and the rule in one probe).
type ruleSlot struct {
	rule *GlobalRule
	fid  flow.FID
	used bool
	// stale marks a rule known to disagree with the Local MATs (a
	// failed install left the previous version behind, or a recompute
	// was dropped). LookupLive refuses it so the fast path degrades
	// to the slow path instead of serving outdated actions.
	stale bool
}

// ruleTable is one shard's immutable table snapshot: a power-of-two
// open-addressing array probed linearly. Writers never mutate a
// published snapshot — every mutation builds a replacement under the
// shard mutex and publishes it with one atomic pointer store — so
// readers probe without locks, fences or torn-read hazards. The table
// is tombstone-free: removal rebuilds the array, so probe chains
// never accumulate dead slots.
type ruleTable struct {
	slots []ruleSlot
	mask  uint32 // len(slots)-1
	count int    // occupied slots
	stale int    // stale-marked among them
}

// emptyRuleTable is the shared snapshot of an empty shard: one unused
// slot, so probes terminate immediately. Immutable, hence shareable
// by every shard of every Global.
var emptyRuleTable = &ruleTable{slots: make([]ruleSlot, 1)}

// hashFID spreads a FID over a shard's slot array. All FIDs of a
// shard agree on the low shardBits, so the multiplicative hash runs on
// the distinguishing high bits, with a fold so the table-index low
// bits of the product are well mixed.
func hashFID(fid flow.FID) uint32 {
	h := uint32(fid>>shardBits) * 2654435761 // Knuth's multiplicative constant
	return h ^ h>>16
}

// get returns the slot holding fid, or nil. The probe always
// terminates: builders keep load strictly below capacity, so every
// chain reaches an unused slot.
func (t *ruleTable) get(fid flow.FID) *ruleSlot {
	i := hashFID(fid) & t.mask
	for {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.fid == fid {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// place inserts a slot during table construction (never on a
// published table). The caller guarantees free capacity and that fid
// is not already present.
func (t *ruleTable) place(s ruleSlot) {
	i := hashFID(s.fid) & t.mask
	for t.slots[i].used {
		i = (i + 1) & t.mask
	}
	t.slots[i] = s
	t.count++
	if s.stale {
		t.stale++
	}
}

// tableFor returns an unpublished table sized for n rules at under
// 3/4 load, minimum 8 slots.
func tableFor(n int) *ruleTable {
	size := 8
	for n >= size-size/4 {
		size *= 2
	}
	return &ruleTable{slots: make([]ruleSlot, size), mask: uint32(size - 1)}
}

// rebuild returns an unpublished copy of t sized for its count plus
// extra upcoming insertions, skipping the slot for skip (NoFID-like
// sentinel: pass an impossible key to keep everything). Rehashing
// from scratch is what makes removal tombstone-free.
func (t *ruleTable) rebuild(extra int, skip flow.FID, skipValid bool) *ruleTable {
	n := t.count + extra
	if skipValid {
		n--
	}
	nt := tableFor(n)
	for i := range t.slots {
		s := &t.slots[i]
		if !s.used || (skipValid && s.fid == skip) {
			continue
		}
		nt.place(*s)
	}
	return nt
}

// globalShardCore is the hot state of one shard: the write-serializing
// mutex and the published snapshot pointer.
type globalShardCore struct {
	mu    sync.Mutex
	table atomic.Pointer[ruleTable]
}

// globalShard pads the core to a full cache-line multiple, computed
// from the real field layout (a hard-coded pad silently stops padding
// when fields change), so no two shards' hot words share a line.
type globalShard struct {
	globalShardCore
	_ [(cacheLine - unsafe.Sizeof(globalShardCore{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the shard padding targets.
const cacheLine = 64

// Global is the Global MAT: the table of consolidated fast-path rules
// keyed by FID (implemented in BESS as a global array reachable from
// all Local MATs, and in ONVM at the NF manager, §VI-A). It is safe
// for concurrent use; rules returned by Lookup are immutable once
// installed — replacement installs a fresh rule pointer.
//
// Reads are lock-free: each shard publishes an immutable
// open-addressing snapshot through an atomic pointer, so the data
// path's LookupLive is one atomic load plus a linear probe over
// contiguous slots — no mutex, no map hashing. Writers serialize on
// the shard mutex, copy the slot array, apply the mutation to the
// copy, publish it, and only then bump the generation: a worker cache
// that validated against the pre-publication generation is invalidated
// by the bump, and one that read the post-bump generation can only
// have probed the already-published snapshot (or a newer one), so a
// generation-valid cached rule is never staler than the table.
type Global struct {
	shards [ShardCount]globalShard
	// gen counts table mutations that can change what LookupLive
	// returns (Install, Remove, MarkStale — bumped under the owning
	// shard's lock). Batch workers cache rule pointers keyed by this
	// generation: a cached rule is served only while Gen() still equals
	// the generation observed when it was looked up, so any install,
	// teardown or stale-marking anywhere invalidates every cache at the
	// cost of one relaxed atomic load per hit. Control-plane mutations
	// are rare relative to data packets, so the cacheline stays
	// read-mostly and shared across cores.
	gen atomic.Uint64
	// epoch is the current chain epoch. Engine.Reconfigure advances it
	// when the NF chain changes shape; every rule consolidated under an
	// earlier epoch is then dead (LookupLive misses) and is stale-marked
	// by the sweep so teardown/expiry paths reclaim it.
	epoch atomic.Uint64
	// journal, when set, observes every mutation for write-ahead
	// logging (stored as a pointer-to-interface for atomic swap).
	journal atomic.Pointer[Journal]
}

// Journal observes Global MAT mutations for write-ahead logging. The
// callbacks run under the owning shard's write lock (EpochAdvanced
// under the engine's reconfigure serialization instead), so the
// journal sees mutations in exactly the order the table applied them;
// implementations must not call back into the table. mat defines the
// interface and core adapts it to the WAL writer, keeping this package
// free of a wal dependency.
type Journal interface {
	// RuleInstalled reports an Install: r is the stored rule (the
	// version-carried copy when replacing).
	RuleInstalled(r *GlobalRule, replaced bool)
	// RuleRemoved reports a Remove that deleted an installed rule.
	RuleRemoved(fid flow.FID)
	// RuleStaled reports a MarkStale that marked an installed rule.
	RuleStaled(fid flow.FID)
	// EpochAdvanced reports an AdvanceEpoch with the new epoch.
	// SweepEpoch is deliberately not journaled: replaying the epoch
	// advance already invalidates every older-epoch rule.
	EpochAdvanced(epoch uint64)
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
func (g *Global) SetJournal(j Journal) {
	if j == nil {
		g.journal.Store(nil)
		return
	}
	g.journal.Store(&j)
}

func (g *Global) journalOf() Journal {
	if p := g.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// tableGen hands each Global instance its own 2^32-wide generation
// band. Per-worker rule caches validate cached rule pointers by
// generation value alone, so generations must never coincide across
// table instances: a long-lived Batch carried across an engine rebuild
// (crash-restore, tests constructing engine pairs) could otherwise
// validate a dead table's cached rule — and the closures it holds over
// dead NF instances.
var tableGen atomic.Uint64

// NewGlobal returns an empty Global MAT.
func NewGlobal() *Global {
	g := &Global{}
	g.gen.Store(tableGen.Add(1) << 32)
	for i := range g.shards {
		g.shards[i].table.Store(emptyRuleTable)
	}
	return g
}

func (g *Global) shardFor(fid flow.FID) *globalShard {
	return &g.shards[uint32(fid)&shardMask]
}

// publish swaps in a shard's new snapshot and then bumps the table
// generation — in that order, so a reader that observes the new
// generation before probing can only see the new (or an even newer)
// snapshot. The caller holds the shard mutex.
func (g *Global) publish(s *globalShard, t *ruleTable) {
	s.table.Store(t)
	g.gen.Add(1)
}

// Install inserts or replaces the rule for a flow, reporting whether
// an existing rule was replaced (telemetry distinguishes first-time
// installs from event-driven reconsolidations). When replacing, the
// version counter carries over and increments — on a private copy of
// the rule, never by writing through the caller's pointer: platforms
// may still hold (and read) previously installed rules concurrently.
// A fresh install supersedes any stale mark.
func (g *Global) Install(r *GlobalRule) (replaced bool) {
	s := g.shardFor(r.FID)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	stored := r
	if old := t.get(r.FID); old != nil {
		versioned := *r
		versioned.Version = old.rule.Version + 1
		stored = &versioned
		replaced = true
	}
	nt := t.rebuild(1, r.FID, replaced)
	nt.place(ruleSlot{rule: stored, fid: r.FID, used: true})
	g.publish(s, nt)
	if j := g.journalOf(); j != nil {
		j.RuleInstalled(stored, replaced)
	}
	return replaced
}

// Gen returns the table's mutation generation. A rule obtained from
// LookupLive stays servable from a cache for exactly as long as Gen()
// returns the value read before that lookup.
func (g *Global) Gen() uint64 { return g.gen.Load() }

// Epoch returns the current chain epoch. Rules consolidated under an
// earlier epoch are never served by LookupLive.
func (g *Global) Epoch() uint64 { return g.epoch.Load() }

// AdvanceEpoch moves the table to the next chain epoch and returns it.
// The generation is bumped too, so every batch-worker rule cache
// invalidates immediately — a cached pre-reconfiguration rule cannot be
// served even before SweepEpoch visits its shard.
func (g *Global) AdvanceEpoch() uint64 {
	e := g.epoch.Add(1)
	g.gen.Add(1)
	if j := g.journalOf(); j != nil {
		j.EpochAdvanced(e)
	}
	return e
}

// RestoreEpoch forces the table's epoch to e (never backwards) without
// journaling — it exists for Engine.Restore, which replays a journal
// that already contains the epoch history. The generation is bumped so
// batch-worker rule caches invalidate.
func (g *Global) RestoreEpoch(e uint64) {
	for {
		cur := g.epoch.Load()
		if cur >= e {
			break
		}
		if g.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	g.gen.Add(1)
}

// SweepEpoch stale-marks every installed rule whose epoch differs from
// cur, returning how many rules were newly marked. It reuses the
// MarkStale representation so the ordinary reclamation paths (a fresh
// install, FIN teardown, idle expiry) clean the carcasses up; the rules
// were already dead to LookupLive the moment AdvanceEpoch published the
// new epoch, so the sweep only makes the staleness visible to StaleLen
// and Dump and lets IsStale-driven tooling see it.
func (g *Global) SweepEpoch(cur uint64) int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		t := s.table.Load()
		marked := false
		var nt *ruleTable
		for si := range t.slots {
			sl := &t.slots[si]
			if !sl.used || sl.stale || sl.rule.Epoch == cur {
				continue
			}
			if nt == nil {
				nt = t.rebuild(0, 0, false)
			}
			nt.get(sl.fid).stale = true
			nt.stale++
			marked = true
			n++
		}
		if marked {
			g.publish(s, nt)
		}
		s.mu.Unlock()
	}
	return n
}

// Lookup fetches the rule for a flow, lock-free off the shard's
// published snapshot. The returned rule must be treated as immutable.
func (g *Global) Lookup(fid flow.FID) (*GlobalRule, bool) {
	if sl := g.shardFor(fid).table.Load().get(fid); sl != nil {
		return sl.rule, true
	}
	return nil, false
}

// Remove deletes a flow's rule (FIN/RST teardown, §VI-B). It reports
// whether a rule existed.
func (g *Global) Remove(fid flow.FID) bool {
	s := g.shardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	if t.get(fid) == nil {
		// Nothing to remove; bump the generation anyway so the call's
		// cache-invalidation contract matches the locked-table era
		// (callers rely on Remove invalidating worker caches).
		g.gen.Add(1)
		return false
	}
	g.publish(s, t.rebuild(0, fid, true))
	if j := g.journalOf(); j != nil {
		j.RuleRemoved(fid)
	}
	return true
}

// MarkStale flags a flow's installed rule as disagreeing with the
// Local MATs — a failed install or a lost recomputation left the old
// version in the table. The rule stays installed (Lookup still returns
// it, and debugging tools can inspect it) but LookupLive misses, so
// the data path degrades the flow to the slow-path chain until a
// successful Install clears the mark. It reports whether a rule was
// present to mark.
func (g *Global) MarkStale(fid flow.FID) bool {
	s := g.shardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	sl := t.get(fid)
	if sl == nil {
		g.gen.Add(1) // cache-invalidation contract, as in Remove
		return false
	}
	if !sl.stale {
		nt := t.rebuild(0, 0, false)
		nt.get(fid).stale = true
		nt.stale++
		g.publish(s, nt)
	} else {
		g.gen.Add(1)
	}
	if j := g.journalOf(); j != nil {
		j.RuleStaled(fid)
	}
	return true
}

// IsStale reports whether the flow's rule is stale-marked.
func (g *Global) IsStale(fid flow.FID) bool {
	sl := g.shardFor(fid).table.Load().get(fid)
	return sl != nil && sl.stale
}

// LookupLive fetches the rule for a flow only if it is current: a
// stale-marked rule misses, sending the caller to the always-correct
// slow path. This is the data path's (and classifier probe's) lookup —
// one atomic snapshot load and a lock-free linear probe; plain Lookup
// keeps returning stale rules for inspection.
func (g *Global) LookupLive(fid flow.FID) (*GlobalRule, bool) {
	sl := g.shardFor(fid).table.Load().get(fid)
	if sl == nil || sl.stale {
		return nil, false
	}
	if sl.rule.Epoch != g.epoch.Load() {
		// Consolidated under a retired chain layout; dead even if the
		// epoch sweep has not stale-marked it yet.
		return nil, false
	}
	return sl.rule, true
}

// StaleLen returns the number of stale-marked rules.
func (g *Global) StaleLen() int {
	n := 0
	for i := range g.shards {
		n += g.shards[i].table.Load().stale
	}
	return n
}

// Len returns the number of installed rules.
func (g *Global) Len() int {
	n := 0
	for i := range g.shards {
		n += g.shards[i].table.Load().count
	}
	return n
}

// ForEach calls fn for every installed rule. It iterates each shard's
// published snapshot, so fn sees a per-shard-consistent view and may
// safely call back into the table; rules must still be treated as
// immutable.
func (g *Global) ForEach(fn func(*GlobalRule)) {
	for i := range g.shards {
		t := g.shards[i].table.Load()
		for si := range t.slots {
			if t.slots[si].used {
				fn(t.slots[si].rule)
			}
		}
	}
}

// Dump renders every installed rule, sorted by FID, for debugging and
// the chainsim -dump-rules flag.
func (g *Global) Dump() string {
	var rules []*GlobalRule
	g.ForEach(func(r *GlobalRule) { rules = append(rules, r) })
	sort.Slice(rules, func(i, j int) bool { return rules[i].FID < rules[j].FID })
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String())
		if g.IsStale(r.FID) {
			b.WriteString(" [stale]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
