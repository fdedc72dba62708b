package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Model is the cycle-cost model; nil selects cost.DefaultModel.
	Model *cost.Model
	// EnableSpeedyBox turns on recording, consolidation and the fast
	// path. When false the engine is the unmodified baseline chain.
	EnableSpeedyBox bool
	// ConsolidateHeaders enables header-action consolidation on the
	// fast path. Disabling it (with EnableSpeedyBox on) gives the
	// SF-parallelism-only ablation of Figure 7: header work is priced
	// as if each NF still applied its own actions.
	ConsolidateHeaders bool
	// ParallelSF enables Table-I parallel state-function execution.
	// Disabling it gives the header-consolidation-only ablation.
	ParallelSF bool
	// Telemetry attaches the engine to a runtime-telemetry hub:
	// per-path work histograms, MAT churn counters and flight-recorder
	// journaling. Nil disables telemetry (zero per-packet overhead).
	Telemetry *telemetry.Hub
	// Faults attaches a fault injector: the control plane consults it
	// at rule installs, event recomputations, NF hops and per-packet
	// table pressure, and degrades affected flows to the slow path
	// (see internal/fault). Nil disables injection entirely, with zero
	// data-path overhead.
	Faults *fault.Injector
	// Admission attaches a tenant-isolation policy: fresh rule
	// installs and event registrations are gated through it (see the
	// Admission interface). Nil admits everything with zero overhead.
	Admission Admission
	// ChainLabel, when set, is appended as a {chain="..."} label to
	// every engine metric name, so several chain engines sharing one
	// telemetry hub (a multi-chain topology) keep distinct series
	// instead of silently merging into one.
	ChainLabel string
}

// DefaultOptions returns full SpeedyBox: both optimizations on.
func DefaultOptions() Options {
	return Options{EnableSpeedyBox: true, ConsolidateHeaders: true, ParallelSF: true}
}

// BaselineOptions returns the unmodified original chain.
func BaselineOptions() Options { return Options{} }

// Sentinel errors. Each carries a registered errcode code so
// API-visible failures resolve to machine-assertable codes
// (errcode.CodeOf) while errors.Is identity matching is unchanged.
var (
	// ErrEmptyChain reports an engine built with no NFs.
	ErrEmptyChain = errcode.Sentinel("core.empty_chain", "core: empty service chain")
	// ErrDuplicateNF reports two NFs sharing a name.
	ErrDuplicateNF = errcode.Sentinel("core.duplicate_nf", "core: duplicate NF name")
	// ErrNFFailed wraps NF processing errors.
	ErrNFFailed = errcode.Sentinel("core.nf_failed", "core: NF processing failed")
	// ErrBadModel reports an engine built over an invalid cost model.
	ErrBadModel = errcode.Sentinel("core.bad_cost_model", "core: invalid cost model")
	// ErrNFIndex reports a ProcessNF index outside the live chain.
	ErrNFIndex = errcode.Sentinel("core.nf_index_out_of_range", "core: NF index out of range")
	// ErrUnknownEventNF reports an event firing from an NF absent from
	// the live chain snapshot.
	ErrUnknownEventNF = errcode.Sentinel("core.event_unknown_nf", "core: event from unknown NF")
)

// statsShardCount is the number of counter shards (power of two).
// Counters for a packet land in the shard selected by its FID's low
// bits, so workers of the multi-queue platform mostly hit distinct
// cache lines; Stats() folds the shards into one snapshot.
const statsShardCount = 32

// statsShardCore is one block of engine counters, updated with
// atomics — never a lock — on the per-packet accounting path.
type statsShardCore struct {
	packets, initial, subsequent, handshake, final  atomic.Uint64
	fastPath, slowPath, dropped                     atomic.Uint64
	eventsFired, consolidations                     atomic.Uint64
	slowFallbacks, degradedPackets, faultRecoveries atomic.Uint64
	ruleQuotaDenied, eventCapDenied                 atomic.Uint64
}

// statsShard pads the counters to a cache-line multiple against false
// sharing, sized from the real field layout so adding a counter can
// never silently leave two shards sharing a line.
type statsShard struct {
	statsShardCore
	_ [(cacheLine - unsafe.Sizeof(statsShardCore{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the shard padding targets.
const cacheLine = 64

// recShardCount is the number of recording-slot shards (power of two).
const recShardCount = 32

// recShardCore is one independently locked slice of the
// recording-claims set.
type recShardCore struct {
	mu   sync.Mutex
	fids map[flow.FID]struct{}
}

// recShard pads the claims to a full cache line (the old hard-coded
// pad left the struct at 56 bytes — adjacent shards shared a line).
type recShard struct {
	recShardCore
	_ [(cacheLine - unsafe.Sizeof(recShardCore{})%cacheLine) % cacheLine]byte
}

// Engine wires a service chain to the SpeedyBox machinery. It is safe
// for concurrent use: the pipelined ONVM platform classifies,
// processes and consolidates from different goroutines, and the
// multi-queue platform calls ProcessBatch from one worker per RSS
// queue. All per-flow state (flow table, Global MAT, Event Table,
// recording claims, counters) is sharded by FID so workers handling
// disjoint flows do not contend.
type Engine struct {
	model *cost.Model
	opts  Options
	// cur is the live chain snapshot: the NF sequence, its Local MATs,
	// the name index and the chain epoch, all immutable once published.
	// Reconfigure swaps in a fresh snapshot atomically; data-path code
	// loads the pointer once per packet (or per batch element) and works
	// against that consistent view for the whole traversal.
	cur atomic.Pointer[chainState]
	// reconfigMu serializes Reconfigure: plan validation, epoch advance,
	// snapshot publication and the stale sweep form one critical section.
	reconfigMu sync.Mutex
	global     *mat.Global
	events     *event.Table
	class      *classifier.Classifier
	// hasRule is the classifier's Global MAT probe, built once at
	// construction (nil when SpeedyBox is disabled) so Classify does
	// not allocate a closure per packet.
	hasRule func(flow.FID) bool

	stats [statsShardCount]statsShard

	// batches pools the Batch scratch ProcessPacket runs its one-packet
	// vectors on.
	batches sync.Pool

	recording [recShardCount]recShard

	// faults is the optional injector (Options.Faults); nil means no
	// injection. All injection sites guard on the nil check.
	faults *fault.Injector
	// admission is the optional tenant-isolation policy
	// (Options.Admission); nil admits everything. Consulted only at
	// control-plane sites (consolidation, event registration,
	// teardown), never per fast-path packet.
	admission Admission
	// degraded is the graceful-degradation ladder (degrade.go).
	degraded [degradeShardCount]degradeShard

	// tel is the pre-resolved telemetry metric set, nil when
	// Options.Telemetry is unset. Hot paths guard every use with a
	// single nil check.
	tel *engineTelemetry

	// wal is the attached write-ahead log (persist.go), nil when
	// durability is off. Journaling happens inside the Global MAT and
	// Event Table via their journal hooks, never on the per-packet
	// data path.
	wal *wal.Writer

	// lastCheckpoint is the unix-nanosecond stamp of the most recent
	// successful Checkpoint (0 = never), read at scrape time by the
	// speedybox_checkpoint_age_seconds gauge and by daemon status.
	lastCheckpoint atomic.Int64
}

// NewEngine builds an engine over the chain.
func NewEngine(chain []NF, opts Options) (*Engine, error) {
	if len(chain) == 0 {
		return nil, ErrEmptyChain
	}
	if opts.Model == nil {
		opts.Model = cost.DefaultModel()
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadModel, err)
	}
	seen := make(map[string]bool, len(chain))
	for _, nf := range chain {
		if seen[nf.Name()] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateNF, nf.Name())
		}
		seen[nf.Name()] = true
	}
	e := &Engine{
		model:  opts.Model,
		opts:   opts,
		global: mat.NewGlobal(),
		events: event.NewTable(),
		class:  classifier.New(flow.NewTable()),
	}
	e.cur.Store(newChainState(chain, nil, 0))
	e.batches.New = func() any { return NewBatch(1) }
	for i := range e.recording {
		e.recording[i].fids = make(map[flow.FID]struct{})
	}
	for i := range e.degraded {
		e.degraded[i].flows = make(map[flow.FID]*degradeState)
	}
	e.faults = opts.Faults
	e.admission = opts.Admission
	if opts.EnableSpeedyBox {
		// LookupLive, not Lookup: a stale-marked rule must classify the
		// flow's packets as initial (re-record) rather than subsequent
		// (serve the outdated rule).
		e.hasRule = func(fid flow.FID) bool {
			_, ok := e.global.LookupLive(fid)
			return ok
		}
	}
	if opts.Telemetry != nil {
		e.tel = newEngineTelemetry(e, opts.Telemetry, opts.ChainLabel)
	}
	return e, nil
}

// recShardFor returns the recording shard owning a FID.
func (e *Engine) recShardFor(fid flow.FID) *recShard {
	return &e.recording[uint32(fid)&(recShardCount-1)]
}

// statsFor returns the counter shard owning a FID.
func (e *Engine) statsFor(fid flow.FID) *statsShard {
	return &e.stats[uint32(fid)&(statsShardCount-1)]
}

// releaseRuleBudget returns the flow's rule admission budget (no-op
// without an admission policy). Called wherever the engine discards
// the flow's consolidated state, whether or not a rule was installed:
// an admitted-but-never-installed reservation (install fault,
// unconsolidatable actions) must not leak.
func (e *Engine) releaseRuleBudget(fid flow.FID) {
	if e.admission != nil {
		e.admission.ReleaseRule(fid)
	}
}

// releaseEventBudget returns the flow's event admission budget (no-op
// without an admission policy). Called wherever the engine empties the
// flow's Event Table entry.
func (e *Engine) releaseEventBudget(fid flow.FID) {
	if e.admission != nil {
		e.admission.ReleaseEvents(fid)
	}
}

// TryBeginRecording claims the flow's recording slot. When several
// initial packets of one flow are in flight concurrently (free-running
// pipeline mode), only the first may record — a second recorder would
// append duplicate actions and state functions to the Local MATs. The
// losers traverse the chain without recording, which is always
// correct. EndRecording releases the slot.
func (e *Engine) TryBeginRecording(fid flow.FID) bool {
	s := e.recShardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.fids[fid]; ok {
		return false
	}
	s.fids[fid] = struct{}{}
	return true
}

// EndRecording releases the flow's recording slot.
func (e *Engine) EndRecording(fid flow.FID) {
	s := e.recShardFor(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.fids, fid)
}

// Model returns the engine's cost model.
func (e *Engine) Model() *cost.Model { return e.model }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// state returns the live chain snapshot. Callers traversing the chain
// load it once and use the same snapshot throughout, so a concurrent
// Reconfigure never shears a traversal.
func (e *Engine) state() *chainState { return e.cur.Load() }

// ChainLen returns the number of NFs in the live chain.
func (e *Engine) ChainLen() int { return len(e.state().chain) }

// ChainNames returns the live chain's NF names in order.
func (e *Engine) ChainNames() []string {
	cs := e.state()
	out := make([]string, len(cs.chain))
	for i, nf := range cs.chain {
		out[i] = nf.Name()
	}
	return out
}

// Epoch returns the current chain epoch (bumped by Reconfigure).
func (e *Engine) Epoch() uint64 { return e.global.Epoch() }

// DegradedFlows returns how many flows currently sit on the
// degradation ladder (slow-path only, awaiting rule reinstallation).
func (e *Engine) DegradedFlows() int { return e.degradedLen() }

// Global exposes the Global MAT (tests and platforms).
func (e *Engine) Global() *mat.Global { return e.global }

// Events exposes the Event Table.
func (e *Engine) Events() *event.Table { return e.events }

// Local returns the Local MAT of the i-th NF in the live chain.
func (e *Engine) Local(i int) *mat.Local { return e.state().locals[i] }

// Telemetry returns the hub this engine reports into, nil when
// telemetry is disabled. Platform wrappers use it to register their
// own metrics alongside the engine's.
func (e *Engine) Telemetry() *telemetry.Hub {
	if e.tel == nil {
		return nil
	}
	return e.tel.hub
}

// Stats returns a snapshot of the engine counters, folded across the
// counter shards. Counters are updated with atomics, so a snapshot
// taken while packets are in flight is internally consistent per
// counter but not across counters (Packets may momentarily exceed the
// sum of the kind counters, never the reverse by more than the number
// of in-flight packets).
func (e *Engine) Stats() Stats {
	var s Stats
	for i := range e.stats {
		sh := &e.stats[i]
		s.Packets += sh.packets.Load()
		s.Initial += sh.initial.Load()
		s.Subsequent += sh.subsequent.Load()
		s.Handshake += sh.handshake.Load()
		s.Final += sh.final.Load()
		s.FastPath += sh.fastPath.Load()
		s.SlowPath += sh.slowPath.Load()
		s.Dropped += sh.dropped.Load()
		s.EventsFired += sh.eventsFired.Load()
		s.Consolidations += sh.consolidations.Load()
		s.SlowPathFallbacks += sh.slowFallbacks.Load()
		s.DegradedPackets += sh.degradedPackets.Load()
		s.FaultRecoveries += sh.faultRecoveries.Load()
		s.RuleQuotaDenied += sh.ruleQuotaDenied.Load()
		s.EventCapDenied += sh.eventCapDenied.Load()
	}
	return s
}

// Faults returns the engine's fault injector, nil when injection is
// disabled (tests and CLI reporting).
func (e *Engine) Faults() *fault.Injector { return e.faults }

// Classify runs the Packet Classifier on one packet, deciding which
// path it takes. Exposed so pipelined platforms can run classification
// on a dedicated RX core. When the packet is a SYN restarting an
// already-tracked flow (5-tuple reuse without FIN/RST), the previous
// connection's consolidated rule, Local MAT entries, events and
// NF-internal per-flow state are torn down here, before the new
// connection's packets can be routed — otherwise its established
// packets would classify as subsequent and execute the old
// connection's recorded actions.
func (e *Engine) Classify(pkt *packet.Packet) (classifier.Result, error) {
	res, err := e.class.Classify(pkt, e.hasRule)
	if err == nil && res.Reused {
		e.resetReusedFlow(res.FID)
	}
	return res, err
}

// resetReusedFlow tears down the consolidated state of the previous
// connection on a reused 5-tuple. The flow-table entry itself stays
// (the classifier has already reset it to the handshake state).
func (e *Engine) resetReusedFlow(fid flow.FID) {
	cs := e.state()
	removed := e.global.Remove(fid)
	for _, l := range cs.locals {
		l.Delete(fid)
	}
	e.events.Remove(fid)
	e.releaseRuleBudget(fid)
	e.releaseEventBudget(fid)
	// The new connection must not inherit the old one's fault backoff.
	e.dropDegraded(fid)
	for _, nf := range cs.chain {
		if closer, ok := nf.(FlowCloser); ok {
			closer.FlowClosed(fid)
		}
	}
	if e.tel != nil {
		e.tel.flowResets.Inc()
		e.tel.rec.Append(telemetry.EvFlowReset, uint32(fid), CauseSynReuse)
		if removed {
			e.tel.ruleRemoved(uint32(fid), CauseSynReuse)
		}
	}
}

// ProcessNF runs the i-th NF on a slow-path packet, returning the
// verdict and the work cycles the NF charged. Pipelined platforms call
// it from per-NF goroutines; PrepareRecording must have run first for
// recording packets.
func (e *Engine) ProcessNF(i int, fid flow.FID, pkt *packet.Packet, recording bool) (Verdict, uint64, error) {
	cs := e.state()
	if i < 0 || i >= len(cs.chain) {
		return 0, 0, fmt.Errorf("%w: %d", ErrNFIndex, i)
	}
	nf := cs.chain[i]
	ledger := getLedger()
	defer putLedger(ledger)
	ctx := &Ctx{
		FID:       fid,
		Initial:   recording,
		Model:     e.model,
		nf:        nf.Name(),
		ledger:    ledger,
		local:     cs.locals[i],
		events:    e.events,
		recording: recording,
		epoch:     cs.epoch,
		admit:     e.admission,
		tenant:    pkt.Meta.Tenant,
	}
	v, err := nf.Process(ctx, pkt)
	if err != nil {
		return 0, ledger.Total(), fmt.Errorf("%w: %s: %w", ErrNFFailed, nf.Name(), err)
	}
	return v, ledger.Total(), nil
}

// ledgerPool recycles per-packet cycle ledgers so the slow path does
// not allocate a map-backed ledger per packet (or per NF hop in the
// pipelined platform).
var ledgerPool = sync.Pool{New: func() any { return cost.NewLedger() }}

func getLedger() *cost.Ledger { return ledgerPool.Get().(*cost.Ledger) }

func putLedger(l *cost.Ledger) {
	l.Reset()
	ledgerPool.Put(l)
}

// PrepareRecording clears the flow's Local MAT entries and events so
// an initial packet re-records from scratch.
func (e *Engine) PrepareRecording(fid flow.FID) {
	for _, l := range e.state().locals {
		l.Delete(fid)
	}
	e.events.Remove(fid)
	e.releaseEventBudget(fid)
}

// ConsolidateFlow snapshots the Local MATs and installs the Global MAT
// rule, returning the consolidation work cycles. A
// mat.ErrNotConsolidatable error means the flow stays on the slow
// path; the caller decides whether that is fatal.
func (e *Engine) ConsolidateFlow(fid flow.FID) (uint64, error) {
	info := &SlowPathInfo{}
	if err := e.consolidate(fid, -1, info, e.state()); err != nil {
		return 0, err
	}
	return info.ConsolidateCycles, nil
}

// TeardownFlow removes all state for a finished flow (FIN/RST
// cleanup, §VI-B).
func (e *Engine) TeardownFlow(fid flow.FID) { e.teardown(fid, CauseFinTeardown) }

// Account folds a finished packet's result into the engine counters.
// The data path accounts for itself; platforms that assemble results
// themselves (the ONVM pipeline) call it once per packet.
func (e *Engine) Account(res *PacketResult) {
	var d statsDelta
	d.add(res)
	e.statsFor(res.FID).fold(&d)
	if e.tel != nil {
		e.tel.accountPacket(res)
	}
}

// ProcessPacket classifies and processes one packet, returning the
// full accounting. The packet is mutated (or dropped) in place. It is
// ProcessBatch over a vector of one on a pooled Batch; the result, and
// its Fast info, are copies the caller owns.
func (e *Engine) ProcessPacket(pkt *packet.Packet) (*PacketResult, error) {
	b := e.batches.Get().(*Batch)
	vec := [1]*packet.Packet{pkt}
	rs, err := e.ProcessBatch(vec[:], b)
	var res *PacketResult
	if err == nil {
		res = rs[0]
		if res.Path == PathFast {
			// Fast-path results live in the Batch's storage; slow-path
			// results are already the caller's.
			cp, info := *res, *res.Fast
			cp.Fast = &info
			res = &cp
		}
	}
	e.batches.Put(b)
	return res, err
}

// slowPath runs the packet through the original service chain,
// recording behaviour when requested.
func (e *Engine) slowPath(fid flow.FID, pkt *packet.Packet, recording bool) (*PacketResult, error) {
	cs := e.state()
	ledger := getLedger()
	defer putLedger(ledger)
	info := &SlowPathInfo{DropIndex: -1}
	if e.opts.EnableSpeedyBox {
		// The SpeedyBox classifier hashed the 5-tuple and attached
		// metadata; the baseline has no such stage.
		info.ClassifierCycles = e.model.HashFID
	}
	if recording {
		// Re-recording an initial packet (e.g. several packets raced
		// in before consolidation) starts from clean Local MATs.
		e.PrepareRecording(fid)
	}

	verdict := VerdictForward
	// One Ctx serves the whole traversal; only the per-NF fields are
	// repointed between hops, so the slow path allocates no Ctx per NF.
	ctx := &Ctx{
		FID:       fid,
		Initial:   recording,
		Model:     e.model,
		ledger:    ledger,
		events:    e.events,
		recording: recording,
		epoch:     cs.epoch,
		admit:     e.admission,
		tenant:    pkt.Meta.Tenant,
	}
	abortRecording := false
	for i, nf := range cs.chain {
		ctx.nf = nf.Name()
		ctx.local = cs.locals[i]
		if e.faults != nil && e.faults.Should(fault.KindNFError, fid) {
			// Fault: the NF "crashes" before touching the packet and
			// restarts. The restarted NF reprocesses the hop
			// identically (its per-flow state was never lost, only the
			// in-flight attempt), but a recording in progress is
			// abandoned: a restarted NF's Local MAT contribution is
			// untrustworthy, so the flow is degraded and re-records
			// after backoff.
			info.FaultRestarts++
			abortRecording = true
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindNFError.String())
			}
		}
		v, err := nf.Process(ctx, pkt)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrNFFailed, nf.Name(), err)
		}
		if v == VerdictDrop {
			verdict = VerdictDrop
			info.DropIndex = i
			if !pkt.Dropped() {
				pkt.Drop()
			}
			break
		}
	}
	info.PerNF = ledger.Stages()

	res := &PacketResult{
		Path:    PathSlow,
		Verdict: verdict,
		Slow:    info,
	}
	if recording && abortRecording {
		// Wipe the partial recording and park the flow on the ladder;
		// a later initial packet re-records from scratch.
		e.PrepareRecording(fid)
		e.degradeFlow(fid, CauseNFError)
		recording = false
	}
	if recording && ctx.eventDenied {
		// An event registration ran into the tenant's cap: serving a
		// consolidated rule without the event would skip the NF's
		// update, so abandon the recording (releasing whatever events
		// were admitted) and keep the flow on the slow path. Unlike a
		// fault this is not degradation-laddered — the flow simply
		// retries on its next initial packet, succeeding as soon as
		// the tenant's other flows release budget.
		e.PrepareRecording(fid)
		e.statsFor(fid).eventCapDenied.Add(1)
		recording = false
	}
	if recording {
		if err := e.consolidate(fid, ctx.tenant, info, cs); err != nil {
			if !errors.Is(err, mat.ErrNotConsolidatable) {
				return nil, err
			}
			// No rule is installed: the flow stays on the (always
			// correct) slow path, just without acceleration.
		}
	}
	res.WorkCycles = info.ClassifierCycles + res.NFWork() + info.ConsolidateCycles
	return res, nil
}

// consolidate snapshots the Local MATs of the given chain snapshot and
// installs the Global MAT rule, charging the consolidation cost into
// info. The installed rule carries the snapshot's epoch: if a
// reconfiguration raced this traversal, the rule is born under the
// retired epoch and LookupLive never serves it. tenant attributes the
// install for admission (-1 = resolve the flow's recorded tenant).
func (e *Engine) consolidate(fid flow.FID, tenant int32, info *SlowPathInfo, cs *chainState) error {
	if e.admission != nil {
		if _, exists := e.global.Lookup(fid); !exists {
			// Only a flow's first install consumes quota; replacements
			// (event-driven reconsolidation, re-records over a stale
			// rule) reuse the admission already held. AdmitRule is
			// idempotent per FID, so a retry after an install fault
			// does not double-charge.
			if !e.admission.AdmitRule(tenant, fid) {
				// Refused: the flow stays on the (always correct) slow
				// path with nothing installed, marked or degraded, and
				// retries on its next initial packet.
				e.statsFor(fid).ruleQuotaDenied.Add(1)
				return nil
			}
		}
	}
	contribs := make([]mat.Contribution, 0, len(cs.chain))
	contributed := 0
	for i, nf := range cs.chain {
		rule, ok := cs.locals[i].Get(fid)
		if !ok {
			contribs = append(contribs, mat.Contribution{NF: nf.Name()})
			continue
		}
		contributed++
		contribs = append(contribs, mat.Contribution{NF: nf.Name(), Rule: rule})
	}
	rule, err := mat.Consolidate(fid, contribs)
	if err != nil {
		if e.tel != nil && errors.Is(err, mat.ErrNotConsolidatable) {
			e.tel.unconsolidatable.Inc()
		}
		return err
	}
	rule.Epoch = cs.epoch
	// The merge work was done whether or not the install below lands.
	info.ConsolidateCycles = e.model.ConsolidateBase + e.model.ConsolidatePerNF*uint64(contributed)
	if e.faults != nil && e.faults.Should(fault.KindInstallFail, fid) {
		// Fault: the consolidated rule never reaches the Global MAT.
		// Any previously installed version now disagrees with the
		// Local MATs and must stop being served; the flow degrades to
		// the slow path and retries the install after backoff. The
		// packet itself was processed by the full chain and is
		// correct.
		stale := e.global.MarkStale(fid)
		e.degradeFlow(fid, CauseInstallFault)
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindInstallFail.String())
			if stale {
				e.tel.rec.Append(telemetry.EvRuleStale, uint32(fid), CauseInstallFault)
			}
		}
		return nil
	}
	replaced := e.global.Install(rule)
	if e.tel != nil {
		e.tel.ruleInstalled(uint32(fid), replaced)
	}
	e.clearDegraded(fid)
	if !replaced {
		e.maybeStorm(fid, cs)
	}
	return nil
}

// maybeStorm is the event-storm fault: a burst of always-true no-op
// events registered against a freshly consolidated flow, forcing a
// reconsolidation on every fast-path packet until teardown. The no-op
// updates keep the rule semantically unchanged (the oracle proves it),
// but churn version counters, replacement metrics and the event
// tables — exactly the load a misbehaving condition handler creates.
func (e *Engine) maybeStorm(fid flow.FID, cs *chainState) {
	if e.faults == nil || !e.faults.Should(fault.KindEventStorm, fid) {
		return
	}
	nf := cs.chain[0].Name()
	for i := 0; i < 3; i++ {
		err := e.events.Register(fid, event.Event{
			NF:        nf,
			Condition: func(flow.FID) bool { return true },
			Update:    func(flow.FID, *mat.LocalRule) {},
			Epoch:     cs.epoch,
		})
		if err != nil {
			break // the per-flow cap bounds the storm
		}
	}
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindEventStorm.String())
	}
}

// evictConsolidated is the eviction-pressure fault: the flow's
// consolidated state (Global rule, Local MAT entries, events) is
// dropped as if the tables ran out of space. Flow tracking and
// NF-internal per-flow state (NAT bindings, LB pins) survive — a real
// eviction does not reach into NFs — so the next packet re-records
// the same behaviour.
func (e *Engine) evictConsolidated(fid flow.FID) {
	removed := e.global.Remove(fid)
	for _, l := range e.state().locals {
		l.Delete(fid)
	}
	e.events.Remove(fid)
	e.releaseRuleBudget(fid)
	e.releaseEventBudget(fid)
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindEvictPressure.String())
		e.tel.rec.Append(telemetry.EvFlowEvict, uint32(fid), CauseFaultEvict)
		if removed {
			e.tel.ruleRemoved(uint32(fid), CauseFaultEvict)
		}
	}
}

// reconsolidate rebuilds the flow's rule after event updates, against
// the same chain snapshot the firings were validated under.
func (e *Engine) reconsolidate(fid flow.FID, cs *chainState) (uint64, error) {
	info := &SlowPathInfo{}
	if err := e.consolidate(fid, -1, info, cs); err != nil {
		return 0, err
	}
	return info.ConsolidateCycles, nil
}

// FastProcess runs the consolidated fast path for a subsequent packet
// into fresh result storage, exposed for platforms that dispatch
// fast-path packets from their own cores (the ONVM manager). rc is the
// calling core's own rule cache.
func (e *Engine) FastProcess(fid flow.FID, pkt *packet.Packet, rc *RuleCache) (*PacketResult, error) {
	return e.fastPathInto(fid, pkt, &FastPathInfo{}, &PacketResult{}, rc)
}

// fastPathInto applies the consolidated rule, writing into the
// caller-provided (zeroed) info and res storage — a Batch reuses its
// arrays so steady-state fast-path packets allocate nothing. rc is the
// worker's rule cache: generation-validated hits skip the sharded
// Global MAT map and the Event Table probes. On a rule miss the packet
// transparently falls back to the slow path, whose (allocated) result
// is returned instead of res.
func (e *Engine) fastPathInto(fid flow.FID, pkt *packet.Packet, info *FastPathInfo, res *PacketResult, rc *RuleCache) (*PacketResult, error) {
	m := e.model
	info.FixedCycles = m.HashFID + m.FastPathBase + m.EventCheck + m.GMATLookup

	// Event Table pre-check: a previously-satisfied condition updates
	// the rule before this packet is processed (§III).
	if fired, err := e.fireEventsCached(fid, info, rc); err != nil {
		return nil, err
	} else if fired {
		// The rule was rebuilt; the fresh lookup below sees it.
		info.FixedCycles += m.GMATLookup
	}

	rule, ok := e.lookupRule(fid, rc)
	if !ok {
		// The rule vanished (torn down or fault-evicted concurrently)
		// or went stale (failed install, lost recomputation). Fall
		// back to the original chain, which is always correct; the
		// flow re-records via the degradation ladder.
		e.countFallback(fid)
		return e.slowPath(fid, pkt, false)
	}
	if !rule.Drop {
		info.FixedCycles += m.FastPathPerHA * uint64(rule.SourceNFs)
	}

	// State functions execute first, on the packet as it arrived at
	// the chain: payload-facing functions (the only kind with data
	// dependencies, per Table I) see the same bytes as on the original
	// path, and for consolidated drops the upstream NFs' functions
	// still observe the packet before it is discarded.
	if len(rule.Batches) > 0 {
		var exec sfunc.ExecResult
		var err error
		if e.opts.ParallelSF {
			exec, err = rule.Plan.Execute(rule.Batches, pkt, m.ForkJoin)
		} else {
			exec, err = sfunc.ExecuteSequential(rule.Batches, pkt)
		}
		if err != nil {
			return nil, err
		}
		info.SF = exec
		info.BatchCount = len(rule.Batches)
		if e.opts.ParallelSF {
			// Worker dispatch overhead; sequential execution stays
			// inline and pays nothing extra.
			info.DispatchCycles = m.ForkJoin / 2 * uint64(len(rule.Batches))
		}
	}

	// Consolidated header work (functionally always the consolidated
	// rule; the ablation only changes the *charged* cost). ExecHeader
	// runs the rule's compiled action program — byte-identical to the
	// interpreted ApplyHeader, which it falls back to for uncompiled
	// rules.
	alive, err := rule.ExecHeader(pkt)
	if err != nil {
		return nil, err
	}
	info.HeaderCycles = e.headerCost(rule)

	verdict := VerdictForward
	if !alive {
		verdict = VerdictDrop
	}

	// Post-execution event check: state updates from this packet may
	// arm a condition that changes processing for the next packet.
	if _, err := e.fireEventsCached(fid, info, rc); err != nil {
		return nil, err
	}

	res.Path = PathFast
	res.Verdict = verdict
	res.Fast = info
	// The "CPU cycle per packet" metric measures the primary
	// processing core, as the paper's rdtsc instrumentation does:
	// with parallel SF execution, worker-core cycles overlap the main
	// core's and only the critical path is observed. Sequential
	// execution keeps all SF work on the main core.
	// Batch dispatch (DispatchCycles) is scheduling overhead the
	// platform formulas account for; it is not NF-attributable work.
	sfCycles := info.SF.TotalCycles
	if e.opts.ParallelSF {
		sfCycles = info.SF.CriticalCycles
	}
	res.WorkCycles = info.FixedCycles + info.HeaderCycles + sfCycles +
		info.ReconsolidateCycles
	return res, nil
}

// fireEventsCached probes the Event Table for the flow, applies any
// updates to the owning Local MATs and reconsolidates. It returns
// whether anything fired. rc is the per-worker cache: a flow
// known to have no registered events (verdict validated against the
// Event Table's registration generation) skips the locked probe
// entirely. The verdict can only be invalidated by Register, which
// advances the generation; firings and removals merely shrink the
// event set, which the cache handles conservatively by keeping probing
// flows it has no verdict for.
func (e *Engine) fireEventsCached(fid flow.FID, info *FastPathInfo, rc *RuleCache) (bool, error) {
	if rc.noEventsValid(e, fid) {
		return false, nil
	}
	// Read the generation before probing: if a Register lands between
	// the two, the cached verdict is stamped with the older generation
	// and the next validity check conservatively misses.
	evGen := e.events.RegGen()
	firings, registered := e.events.Probe(fid)
	if !registered {
		rc.putNoEvents(fid, evGen)
	}
	if len(firings) == 0 {
		return false, nil
	}
	cs := e.state()
	for _, f := range firings {
		if f.Event.Epoch != cs.epoch {
			// The firings were registered under a retired chain: the
			// registering NF may no longer exist, and the flow's rule is
			// from the same epoch, so the lookup below misses anyway.
			// Drop the whole event set — a flow's events all share one
			// epoch (PrepareRecording wipes them before re-recording) —
			// and let the slow path re-record under the live chain.
			e.events.Remove(fid)
			e.releaseEventBudget(fid)
			return false, nil
		}
	}
	for _, f := range firings {
		local, ok := cs.localByName[f.Event.NF]
		if !ok {
			return false, fmt.Errorf("%w: %q", ErrUnknownEventNF, f.Event.NF)
		}
		local.Mutate(fid, func(r *mat.LocalRule) { f.Event.Update(fid, r) })
		info.ReconsolidateCycles += e.model.EventFire
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvEventFire, uint32(fid), f.Event.NF)
		}
	}
	// Faults: the event updates are applied to the Local MATs (NF
	// state has already changed; the updates must not be lost), but
	// the Global-rule recomputation is dropped or delayed. The rule is
	// stale-marked so this packet's fresh lookup misses and falls back
	// to the slow path, which runs the NFs' new logic directly.
	if e.faults != nil {
		if e.faults.Should(fault.KindRecomputeDrop, fid) {
			stale := e.global.MarkStale(fid)
			e.degradeFlow(fid, CauseRecomputeDrop)
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindRecomputeDrop.String())
				if stale {
					e.tel.rec.Append(telemetry.EvRuleStale, uint32(fid), CauseRecomputeDrop)
				}
			}
			info.EventsFired += len(firings)
			return true, nil
		}
		if e.faults.Should(fault.KindRecomputeDelay, fid) {
			stale := e.global.MarkStale(fid)
			e.deferRetry(fid, CauseRecomputeDelay)
			if e.tel != nil {
				e.tel.rec.Append(telemetry.EvFaultInject, uint32(fid), fault.KindRecomputeDelay.String())
				if stale {
					e.tel.rec.Append(telemetry.EvRuleStale, uint32(fid), CauseRecomputeDelay)
				}
			}
			info.EventsFired += len(firings)
			return true, nil
		}
	}
	cycles, err := e.reconsolidate(fid, cs)
	switch {
	case err == nil:
		info.ReconsolidateCycles += cycles
	case errors.Is(err, mat.ErrNotConsolidatable):
		// The updated actions no longer fold into one rule: evict the
		// stale rule so this and future packets take the (always
		// correct) slow path instead of executing outdated actions.
		if e.global.Remove(fid) && e.tel != nil {
			e.tel.ruleRemoved(uint32(fid), CauseEventUnconsolidatable)
		}
		e.releaseRuleBudget(fid)
	default:
		return false, err
	}
	info.EventsFired += len(firings)
	return true, nil
}

// headerCost prices the rule's header work under the active options.
func (e *Engine) headerCost(rule *mat.GlobalRule) uint64 {
	m := e.model
	if rule.Drop {
		return m.DropAction
	}
	if e.opts.ConsolidateHeaders {
		var c uint64
		c += uint64(len(rule.Modifies)) * m.ModifyField
		c += uint64(len(rule.Stack.Decaps)) * m.DecapHeader
		for range rule.Stack.Encaps {
			c += m.EncapHeader
		}
		if _, _, ck := rule.HeaderWork(); ck {
			c += m.ChecksumUpdate
		}
		return c
	}
	// Ablation: price the header work as if every contributing NF
	// still parsed the packet and applied its own actions with its
	// own checksum refresh (redundancies R1 and R3 back in place).
	var c uint64
	for _, s := range rule.Sources {
		c += m.Parse
		c += uint64(s.Modifies) * m.ModifyField
		c += uint64(s.Encaps) * m.EncapHeader
		c += uint64(s.Decaps) * m.DecapHeader
		if s.Modifies+s.Encaps+s.Decaps > 0 {
			c += m.ChecksumUpdate
		}
	}
	return c
}

// ExpireIdle tears down every flow that has been idle for more than
// idleFor classified packets (a logical-clock age), returning how many
// flows were expired. The paper's cleanup runs only on TCP FIN/RST
// (§VI-B), which never fires for UDP or abandoned flows; this
// extension bounds the MAT footprint for such traffic. Expired flows
// are not harmed: their next packet simply re-records as an initial
// packet.
func (e *Engine) ExpireIdle(idleFor uint64) int {
	now := e.class.Now()
	if now <= idleFor {
		return 0
	}
	stale := e.class.Flows().IdleSince(now - idleFor)
	for _, fid := range stale {
		e.teardown(fid, CauseIdleExpiry)
		if e.tel != nil {
			e.tel.rec.Append(telemetry.EvFlowEvict, uint32(fid), CauseIdleExpiry)
		}
	}
	return len(stale)
}

// teardown removes all state for a finished flow (§VI-B), including
// NF-internal per-flow state for NFs implementing FlowCloser. The
// cause labels the removal in telemetry.
func (e *Engine) teardown(fid flow.FID, cause string) {
	cs := e.state()
	removed := e.global.Remove(fid)
	for _, l := range cs.locals {
		l.Delete(fid)
	}
	e.events.Remove(fid)
	e.releaseRuleBudget(fid)
	e.releaseEventBudget(fid)
	// Ladder state dies with the flow: a later reincarnation of the
	// FID starts clean instead of inheriting this connection's backoff.
	e.dropDegraded(fid)
	for _, nf := range cs.chain {
		if closer, ok := nf.(FlowCloser); ok {
			closer.FlowClosed(fid)
		}
	}
	e.class.Teardown(fid)
	if removed && e.tel != nil {
		e.tel.ruleRemoved(uint32(fid), cause)
	}
}
