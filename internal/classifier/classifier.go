// Package classifier implements SpeedyBox's Packet Classifier (paper
// §III, §VI-B): it hashes the 5-tuple into the 20-bit FID, attaches it
// as descriptor metadata, tracks the TCP lifecycle to distinguish
// handshake, initial, subsequent and final packets, and drives
// stale-rule cleanup on FIN/RST.
package classifier

import (
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Kind is the classifier's routing decision for one packet.
type Kind int

// Packet kinds. The engine routes Initial (and Handshake) packets to
// the original service chain and Subsequent packets to the Global MAT.
const (
	// KindHandshake is a TCP connection-establishment packet (SYN or
	// the completing ACK); it traverses the original chain but does
	// not trigger consolidation, because the paper defines the
	// initial packet as the first packet after establishment (§III).
	KindHandshake Kind = iota + 1
	// KindInitial is the flow's initial packet: recording and
	// consolidation happen around it.
	KindInitial
	// KindSubsequent packets take the fast path when a Global MAT
	// rule exists.
	KindSubsequent
	// KindFinal is a FIN/RST packet: after processing, the flow's
	// rules are deleted from the Global MAT and all Local MATs
	// (§VI-B, "Tracking Flow State").
	KindFinal
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindHandshake:
		return "handshake"
	case KindInitial:
		return "initial"
	case KindSubsequent:
		return "subsequent"
	case KindFinal:
		return "final"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result is the classification of one packet.
type Result struct {
	// FID is the flow identifier, also written into pkt.Meta.
	FID flow.FID
	// Kind is the routing decision.
	Kind Kind
	// NewFlow reports that this packet created the flow-table entry.
	NewFlow bool
	// Reused reports that this packet is a SYN restarting a tracked
	// flow that was already past the handshake (5-tuple reuse without
	// an observed FIN/RST). The previous connection's consolidated
	// rule and events are stale and must be torn down before the new
	// connection's packets are processed — otherwise its established
	// packets would classify as subsequent and execute the *old*
	// connection's recorded actions.
	Reused bool
}

// Classifier assigns FIDs and tracks flow lifecycle. It is safe for
// concurrent use (its state lives in the flow table).
type Classifier struct {
	flows *flow.Table
	// seq is the logical clock: one tick per classified packet. Flow
	// entries stamp it into LastSeen so idle flows can be expired.
	seq atomic.Uint64
}

// New returns a classifier over the given flow table.
func New(flows *flow.Table) *Classifier {
	return &Classifier{flows: flows}
}

// Flows exposes the underlying table (the engine tears flows down
// through it).
func (c *Classifier) Flows() *flow.Table { return c.flows }

// Classify parses the packet if necessary, assigns its FID and decides
// its kind. hasRule reports whether the Global MAT already has a rule
// for the flow, which distinguishes the initial packet (first
// established packet without a rule) from subsequent ones — including
// the case where several established packets race in before
// consolidation completes: each is treated as (re-)initial and
// traverses the original chain, which is always safe.
func (c *Classifier) Classify(pkt *packet.Packet, hasRule func(flow.FID) bool) (Result, error) {
	if !pkt.Parsed() {
		if err := pkt.Parse(); err != nil {
			return Result{}, fmt.Errorf("classifier: %w", err)
		}
	}
	ft, err := pkt.FiveTuple()
	if err != nil {
		return Result{}, fmt.Errorf("classifier: %w", err)
	}

	entry, existed := c.flows.Lookup(ft)
	if !existed {
		entry, err = c.flows.Insert(ft)
		if err != nil {
			return Result{}, fmt.Errorf("classifier: %w", err)
		}
	}
	fid := entry.FID
	pkt.Meta.FID = uint32(fid)
	pkt.Meta.HasFID = true

	res := Result{FID: fid, NewFlow: !existed}

	flags, isTCP := pkt.TCPFlags()
	final := isTCP && flags&(packet.TCPFlagFIN|packet.TCPFlagRST) != 0

	// The state machine runs on the snapshot and commits the result:
	// RSS partitioning makes this classifier call the flow's only
	// writer, so the read-modify-write needs no lock held across it,
	// and the closure-free shape keeps the snapshot on the stack.
	now := c.seq.Add(1)
	entry.Packets++
	entry.Bytes += uint64(pkt.Len())
	entry.LastSeen = now
	switch {
	case final:
		entry.State = flow.StateClosed
	case !isTCP:
		// UDP flows are established by their first packet.
		entry.State = flow.StateEstablished
	case flags&packet.TCPFlagSYN != 0:
		// A SYN on a flow already past the handshake is 5-tuple
		// reuse (the FIN/RST of the previous connection was never
		// seen): the connection restarts, and the caller must tear
		// down the previous connection's consolidated state.
		if entry.State != flow.StateHandshake {
			res.Reused = true
		}
		entry.State = flow.StateHandshake
	case entry.State == flow.StateHandshake && flags&packet.TCPFlagACK != 0 && len(pkt.Payload()) == 0:
		// The bare ACK completing the 3-way handshake: the
		// connection is now established, but per §III the
		// *next* packet is the initial packet.
		entry.State = flow.StateEstablished
		res.Kind = KindHandshake
	case entry.State == flow.StateHandshake:
		// Data before the handshake completed (or we joined the
		// connection mid-stream): promote to established.
		entry.State = flow.StateEstablished
	default:
		entry.State = flow.StateEstablished
	}
	c.flows.Commit(fid, &entry)

	if res.Kind != 0 {
		return res, nil // already decided (handshake-completing ACK)
	}
	switch {
	case final:
		pkt.Meta.Final = true
		res.Kind = KindFinal
	case isTCP && flags&packet.TCPFlagSYN != 0:
		res.Kind = KindHandshake
	case hasRule != nil && hasRule(fid):
		res.Kind = KindSubsequent
	default:
		pkt.Meta.Initial = true
		res.Kind = KindInitial
	}
	return res, nil
}

// Teardown removes the flow from the flow table after FIN/RST
// processing; the engine also deletes the MAT rules.
func (c *Classifier) Teardown(fid flow.FID) bool {
	return c.flows.Remove(fid)
}

// Now returns the logical clock: the number of packets classified so
// far.
func (c *Classifier) Now() uint64 { return c.seq.Load() }

// SeqClock exposes the logical clock itself. The engine's data path
// ticks it directly for cache-classified packets, bypassing the full
// state machine while producing the exact per-packet values full
// classification would. Ticks must stay one-per-packet in arrival
// order: degradation-ladder deadlines are expressed in these ticks, so
// a clock that runs ahead of processing would skew backoff decisions
// relative to the one-packet reference.
func (c *Classifier) SeqClock() *atomic.Uint64 { return &c.seq }

// RestoreClock forces the logical clock forward to at least v. A
// restored engine resumes the checkpointed clock so LastSeen stamps in
// restored flow entries stay comparable to post-restore ticks — a
// clock restarting at zero would make every restored flow look
// maximally idle and ExpireIdle would reap it instantly.
func (c *Classifier) RestoreClock(v uint64) {
	for {
		cur := c.seq.Load()
		if cur >= v || c.seq.CompareAndSwap(cur, v) {
			return
		}
	}
}
