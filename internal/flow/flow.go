// Package flow implements flow identification and tracking for
// SpeedyBox: the 20-bit FID derived from the 5-tuple (paper §VI-B),
// and the flow table the Packet Classifier uses to distinguish initial
// from subsequent packets and to tear down rules on TCP FIN/RST.
package flow

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

// FIDBits is the width of the flow identifier. 20 bits represent more
// than one million concurrent flows (paper §VI-B); the width is a
// constant here but the table handles collisions by probing, so the
// design extends to wider FIDs unchanged.
const FIDBits = 20

// MaxFID is the largest representable FID.
const MaxFID = 1<<FIDBits - 1

// ShardCount is the number of independently locked table shards. It
// must be a power of two so a FID's low bits select its shard; probing
// advances in ShardCount strides, which keeps every candidate slot of
// a tuple inside one shard and lets lookups, inserts and removals for
// disjoint FIDs proceed on different cores without contention.
const ShardCount = 32

const shardMask = ShardCount - 1

// FID is a flow identifier. It stays attached to the packet descriptor
// as metadata, so it remains consistent along the chain even when NFs
// rewrite the 5-tuple.
type FID uint32

const hexDigits = "0123456789abcdef"

// String renders the FID in hex. It is hot when the flight recorder
// journals rule transitions, so the 5 nibbles are appended by hand:
// one fixed-size stack buffer and a single string allocation instead
// of fmt's reflection-driven formatting.
func (f FID) String() string {
	var b [9]byte
	b[0], b[1], b[2], b[3] = 'f', 'i', 'd', ':'
	v := uint32(f)
	for i := 0; i < 5; i++ {
		b[8-i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// FNV-1a 32-bit parameters.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// HashTuple maps a 5-tuple to its home FID slot. Collisions are
// resolved by the Table, not here. The FNV-1a fold is inlined (same
// digest as hash/fnv over the 13 key bytes) so classifying a packet
// does not allocate a hasher.
func HashTuple(ft packet.FiveTuple) FID {
	h := uint32(fnvOffset32)
	for _, b := range ft.SrcIP {
		h = (h ^ uint32(b)) * fnvPrime32
	}
	for _, b := range ft.DstIP {
		h = (h ^ uint32(b)) * fnvPrime32
	}
	h = (h ^ uint32(ft.SrcPort>>8)) * fnvPrime32
	h = (h ^ uint32(ft.SrcPort&0xff)) * fnvPrime32
	h = (h ^ uint32(ft.DstPort>>8)) * fnvPrime32
	h = (h ^ uint32(ft.DstPort&0xff)) * fnvPrime32
	h = (h ^ uint32(ft.Proto)) * fnvPrime32
	return FID(h & MaxFID)
}

// HashKey maps a packed two-word flow key (packet.FlowKey's encoding:
// hi = SrcIP‖DstIP big-endian, lo = SrcPort‖DstPort‖Proto) to the same
// home FID HashTuple computes from the unpacked 5-tuple. The cluster
// steerer hashes the packed key straight off the wire — no FiveTuple
// materialization — and equality with HashTuple is what guarantees the
// steering decision agrees with the owning instance's flow table.
func HashKey(hi, lo uint64) FID {
	h := uint32(fnvOffset32)
	h = (h ^ uint32(byte(hi>>56))) * fnvPrime32 // SrcIP
	h = (h ^ uint32(byte(hi>>48))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>40))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>32))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>24))) * fnvPrime32 // DstIP
	h = (h ^ uint32(byte(hi>>16))) * fnvPrime32
	h = (h ^ uint32(byte(hi>>8))) * fnvPrime32
	h = (h ^ uint32(byte(hi))) * fnvPrime32
	h = (h ^ uint32(byte(lo>>32))) * fnvPrime32 // SrcPort
	h = (h ^ uint32(byte(lo>>24))) * fnvPrime32
	h = (h ^ uint32(byte(lo>>16))) * fnvPrime32 // DstPort
	h = (h ^ uint32(byte(lo>>8))) * fnvPrime32
	h = (h ^ uint32(byte(lo))) * fnvPrime32 // Proto
	return FID(h & MaxFID)
}

// State is the lifecycle of a tracked flow.
type State int

// Flow lifecycle states. For TCP, a flow becomes Established once the
// 3-way handshake completes; the packet after that is the "initial
// packet" in the paper's sense (§III). UDP flows are established by
// their first packet.
const (
	// StateHandshake covers TCP SYN / SYN-ACK / ACK exchange.
	StateHandshake State = iota + 1
	// StateEstablished means the connection is up; the first
	// established-state packet is the flow's initial packet.
	StateEstablished
	// StateClosed means FIN or RST was seen; rules are torn down.
	StateClosed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateHandshake:
		return "handshake"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Entry is the tracked state of one flow as a plain value snapshot.
// Lookup, LookupFID and Insert return it by value: callers always see
// a self-consistent copy, and no mutable table state escapes.
type Entry struct {
	FID     FID
	Tuple   packet.FiveTuple
	State   State
	Packets uint64
	Bytes   uint64
	// LastSeen is the logical timestamp (classifier packet sequence
	// number) of the flow's most recent packet, used by idle-flow
	// rule expiry — the paper cleans up on FIN/RST (§VI-B), which
	// never fires for UDP or abandoned flows.
	LastSeen uint64
}

// tracked is the table's internal representation of one flow. The
// identity fields (fid, tuple) are immutable after insertion; the
// mutable lifecycle and bookkeeping fields are atomics, so the
// per-packet touch on the hot classification path updates them
// without taking the shard's write lock — the map structure is only
// read (RLock or none at all via a cached Handle). RSS partitioning
// gives every flow a single writer, so the per-flow fields never
// contend; atomics make concurrent cross-flow readers (Snapshot,
// IdleSince, telemetry) race-free.
type tracked struct {
	fid      FID
	tuple    packet.FiveTuple
	state    atomic.Int32
	packets  atomic.Uint64
	bytes    atomic.Uint64
	lastSeen atomic.Uint64
}

// snapshot copies the entry into a plain value. Field loads are
// individually atomic; cross-field consistency is guaranteed for the
// flow's single writer and best-effort for concurrent observers
// (exactly the guarantee checkpoint and expiry scans need — they run
// against quiesced or conservatively-read tables).
func (e *tracked) snapshot() Entry {
	return Entry{
		FID:      e.fid,
		Tuple:    e.tuple,
		State:    State(e.state.Load()),
		Packets:  e.packets.Load(),
		Bytes:    e.bytes.Load(),
		LastSeen: e.lastSeen.Load(),
	}
}

// storeFrom writes the mutable fields of a snapshot back. The caller
// holds the shard's write lock (Update path).
func (e *tracked) storeFrom(s *Entry) {
	e.state.Store(int32(s.State))
	e.packets.Store(s.Packets)
	e.bytes.Store(s.Bytes)
	e.lastSeen.Store(s.LastSeen)
}

// Handle is a stable, lock-free reference to a tracked flow. Batch
// workers cache handles keyed by 5-tuple and revalidate them against
// the table generation (Gen), so the steady-state per-packet touch is
// a few uncontended atomic operations — no lock, no map probe, no
// hashing. The zero Handle is invalid.
type Handle struct{ e *tracked }

// Valid reports whether the handle references a flow.
func (h Handle) Valid() bool { return h.e != nil }

// FID returns the flow's identifier.
func (h Handle) FID() FID { return h.e.fid }

// Established reports whether the flow is currently established — the
// shape gate of the batched fast classification.
func (h Handle) Established() bool {
	return State(h.e.state.Load()) == StateEstablished
}

// FoldTouches folds a batch's accumulated bookkeeping for the flow in
// three atomic operations: pkts packets, bytes bytes, and the logical
// timestamp of the flow's last packet in the batch. The caller (one
// batch worker — the flow's single writer under RSS partitioning)
// guarantees lastSeen is monotonic with respect to its own earlier
// stores.
func (h Handle) FoldTouches(pkts, bytes, lastSeen uint64) {
	e := h.e
	e.packets.Add(pkts)
	e.bytes.Add(bytes)
	e.lastSeen.Store(lastSeen)
}

// ErrTableFull reports FID space exhaustion.
var ErrTableFull = errors.New("flow: FID space exhausted")

// tableShardCore is the hot state of one shard: the structural lock
// and the two views of its entries. Both maps point at the same
// *tracked, so the tuple-keyed lookup on the hot classifier path
// resolves in a single hash instead of tuple→FID→entry chaining
// through two maps.
type tableShardCore struct {
	mu      sync.RWMutex
	entries map[FID]*tracked
	byTuple map[packet.FiveTuple]*tracked
}

// tableShard pads the core to a full cache-line multiple, sized from
// the real field layout so the pad survives field changes.
type tableShard struct {
	tableShardCore
	_ [(cacheLine - unsafe.Sizeof(tableShardCore{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the shard padding targets.
const cacheLine = 64

// Table tracks flows and allocates collision-free FIDs by linear
// probing in FID space: a flow whose home slot is taken by a different
// 5-tuple gets the next free slot in its shard (probes advance by
// ShardCount, preserving the shard index). The table is sharded by the
// FID's low bits so concurrent classification, update and teardown of
// disjoint flows touch disjoint locks — the multi-queue platform
// drives it from one goroutine per RSS queue.
type Table struct {
	shards [ShardCount]tableShard
	// gen counts mutations that can invalidate a cached Handle:
	// removals and restore-time replacements. Workers revalidate
	// cached handles with one atomic load; insertions of *new* flows
	// deliberately do not bump it (they cannot change what an existing
	// tuple's handle refers to).
	gen atomic.Uint64
}

// tableGen hands every table a distinct 2^32-wide generation band, so
// a cached Handle validated against one table's generation can never be
// accidentally revalidated by another table's — a cluster runs one flow
// table per engine instance, and batch workers carry their caches
// across instances.
var tableGen atomic.Uint64

// NewTable returns an empty flow table.
func NewTable() *Table {
	t := &Table{}
	t.gen.Store(tableGen.Add(1) << 32)
	for i := range t.shards {
		t.shards[i].entries = make(map[FID]*tracked)
		t.shards[i].byTuple = make(map[packet.FiveTuple]*tracked)
	}
	return t
}

// Gen returns the handle-invalidation generation. A Handle acquired
// after reading Gen() is valid for exactly as long as Gen() still
// returns that value (read the generation *before* Acquire, so a
// racing removal can only make the cached handle conservatively
// stale).
func (t *Table) Gen() uint64 { return t.gen.Load() }

// shardFor returns the shard owning a FID (equivalently: the shard
// owning every probe slot of the tuple hashing to that FID).
func (t *Table) shardFor(fid FID) *tableShard {
	return &t.shards[uint32(fid)&shardMask]
}

// Lookup returns a snapshot of the entry for a tuple, if tracked.
func (t *Table) Lookup(ft packet.FiveTuple) (Entry, bool) {
	s := t.shardFor(HashTuple(ft))
	s.mu.RLock()
	e, ok := s.byTuple[ft]
	s.mu.RUnlock()
	if !ok {
		return Entry{}, false
	}
	return e.snapshot(), true
}

// Acquire returns a lock-free Handle on the tracked flow for ft. Read
// Gen before calling and revalidate cached handles against it; see
// Gen for the invalidation contract.
func (t *Table) Acquire(ft packet.FiveTuple) (Handle, bool) {
	s := t.shardFor(HashTuple(ft))
	s.mu.RLock()
	e, ok := s.byTuple[ft]
	s.mu.RUnlock()
	if !ok {
		return Handle{}, false
	}
	return Handle{e}, true
}

// LookupFID returns a snapshot of the entry for a FID, if tracked.
func (t *Table) LookupFID(fid FID) (Entry, bool) {
	s := t.shardFor(fid)
	s.mu.RLock()
	e, ok := s.entries[fid]
	s.mu.RUnlock()
	if !ok {
		return Entry{}, false
	}
	return e.snapshot(), true
}

// Insert tracks a new flow, allocating a collision-free FID, and
// returns a snapshot of the entry. It returns the existing entry's
// snapshot if the tuple is already tracked.
func (t *Table) Insert(ft packet.FiveTuple) (Entry, error) {
	home := HashTuple(ft)
	s := t.shardFor(home)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byTuple[ft]; ok {
		return e.snapshot(), nil
	}
	fid := home
	// Each shard owns (MaxFID+1)/ShardCount slots; probing in
	// ShardCount strides visits exactly those.
	for probes := 0; probes < (MaxFID+1)/ShardCount; probes++ {
		if _, taken := s.entries[fid]; !taken {
			e := &tracked{fid: fid, tuple: ft}
			e.state.Store(int32(StateHandshake))
			s.entries[fid] = e
			s.byTuple[ft] = e
			return e.snapshot(), nil
		}
		fid = (fid + ShardCount) & MaxFID
	}
	return Entry{}, ErrTableFull
}

// Remove deletes a flow by FID. It reports whether the flow existed.
func (t *Table) Remove(fid FID) bool {
	s := t.shardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fid]
	if !ok {
		return false
	}
	delete(s.entries, fid)
	delete(s.byTuple, e.tuple)
	t.gen.Add(1)
	return true
}

// Len returns the number of tracked flows.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// FIDs returns a snapshot of every tracked flow's FID, in no
// particular order. Reconfiguration uses it to notify a removed NF of
// each live flow before tearing the NF down.
func (t *Table) FIDs() []FID {
	out := make([]FID, 0, t.Len())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for fid := range s.entries {
			out = append(out, fid)
		}
		s.mu.RUnlock()
	}
	return out
}

// Update applies fn to a snapshot of the entry for fid under the
// shard lock and stores the mutable fields back. The *Entry passed to
// fn must not be retained past the call; changes to FID or Tuple are
// ignored (flow identity is immutable).
func (t *Table) Update(fid FID, fn func(*Entry)) bool {
	s := t.shardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fid]
	if !ok {
		return false
	}
	snap := e.snapshot()
	fn(&snap)
	e.storeFrom(&snap)
	return true
}

// Commit stores snap's mutable fields back into the tracked entry for
// fid. It is the closure-free write half of a Lookup/Insert →
// local-state-machine → Commit sequence (the scalar classifier's
// shape): because RSS partitioning gives each flow a single writer,
// the read-modify-write needs no lock across the sequence, and Commit
// itself only takes the shard read lock to find the entry — the field
// stores are atomic. It reports whether the flow is still tracked.
func (t *Table) Commit(fid FID, snap *Entry) bool {
	s := t.shardFor(fid)
	s.mu.RLock()
	e, ok := s.entries[fid]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	e.storeFrom(snap)
	return true
}

// Snapshot returns a copy of every tracked entry, sorted by FID so
// checkpoint encodings are deterministic.
func (t *Table) Snapshot() []Entry {
	out := make([]Entry, 0, t.Len())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, e.snapshot())
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FID < out[j].FID })
	return out
}

// RestoreEntry places a checkpointed entry back at its recorded FID,
// bypassing Insert's probing (the FID was already allocated when the
// snapshot was taken, so probe order must not re-run). An existing
// entry at the FID or tuple is replaced, and cached handles are
// invalidated.
func (t *Table) RestoreEntry(e Entry) {
	s := t.shardFor(e.FID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[e.FID]; ok {
		delete(s.byTuple, old.tuple)
	}
	if old, ok := s.byTuple[e.Tuple]; ok {
		delete(s.entries, old.fid)
	}
	stored := &tracked{fid: e.FID, tuple: e.Tuple}
	stored.storeFrom(&e)
	s.entries[e.FID] = stored
	s.byTuple[e.Tuple] = stored
	t.gen.Add(1)
}

// IdleSince returns the FIDs of flows whose LastSeen is strictly
// below the cutoff, for idle-rule garbage collection.
func (t *Table) IdleSince(cutoff uint64) []FID {
	var out []FID
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for fid, e := range s.entries {
			if e.lastSeen.Load() < cutoff {
				out = append(out, fid)
			}
		}
		s.mu.RUnlock()
	}
	return out
}
