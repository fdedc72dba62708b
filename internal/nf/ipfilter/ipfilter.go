// Package ipfilter implements the IPFilter firewall NF: a Click-style
// prototype that parses flow headers and checks them against a
// blacklist with linear scanning (paper §VI-C). Flows matching the
// blacklist receive drop actions, others forward actions.
//
// The paper reports integrating IPFilter into SpeedyBox with 20 added
// lines; the integration surface here is correspondingly thin — the
// Process method records one header action per flow.
package ipfilter

import (
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Prefix matches an IPv4 address against a prefix. Bits == 0 matches
// everything.
type Prefix struct {
	Addr [4]byte
	Bits int
}

// Matches reports whether ip falls inside the prefix.
func (p Prefix) Matches(ip [4]byte) bool {
	if p.Bits <= 0 {
		return true
	}
	bits := p.Bits
	if bits > 32 {
		bits = 32
	}
	var a, b uint32
	for i := 0; i < 4; i++ {
		a = a<<8 | uint32(p.Addr[i])
		b = b<<8 | uint32(ip[i])
	}
	shift := uint(32 - bits)
	return a>>shift == b>>shift
}

// PortRange matches a port interval. A zero-value range (0,0) matches
// any port.
type PortRange struct {
	Lo, Hi uint16
}

// Matches reports whether port falls in the range.
func (r PortRange) Matches(port uint16) bool {
	if r.Lo == 0 && r.Hi == 0 {
		return true
	}
	return port >= r.Lo && port <= r.Hi
}

// Rule is one ACL entry.
type Rule struct {
	Src     Prefix
	Dst     Prefix
	SrcPort PortRange
	DstPort PortRange
	// Proto is the IP protocol; 0 matches any.
	Proto uint8
	// Deny drops matching flows; false allows them explicitly.
	Deny bool
}

// Matches reports whether the rule matches the tuple.
func (r Rule) Matches(ft packet.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != ft.Proto {
		return false
	}
	return r.Src.Matches(ft.SrcIP) && r.Dst.Matches(ft.DstIP) &&
		r.SrcPort.Matches(ft.SrcPort) && r.DstPort.Matches(ft.DstPort)
}

// Config configures a Filter.
type Config struct {
	// Name is the NF instance name (must be unique in a chain).
	Name string
	// Rules are scanned linearly; the first match wins.
	Rules []Rule
	// DefaultDeny drops flows matching no rule; the default is allow.
	DefaultDeny bool
}

// Filter is the firewall NF. It keeps an internal per-flow decision
// cache, as the real IPFilter would: on the original (unconsolidated)
// path only the first packet of a flow pays the linear ACL scan.
type Filter struct {
	name        string
	rules       []Rule
	defaultDeny bool

	mu    sync.Mutex
	cache map[packet.FiveTuple]bool // true = deny
	byFID map[flow.FID]packet.FiveTuple
	stats Stats
}

// Stats counts the filter's decisions.
type Stats struct {
	Scanned uint64
	Allowed uint64
	Denied  uint64
}

// New builds a Filter.
func New(cfg Config) (*Filter, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ipfilter: empty name")
	}
	return &Filter{
		name:        cfg.Name,
		rules:       append([]Rule(nil), cfg.Rules...),
		defaultDeny: cfg.DefaultDeny,
		cache:       make(map[packet.FiveTuple]bool),
		byFID:       make(map[flow.FID]packet.FiveTuple),
	}, nil
}

var _ core.NF = (*Filter)(nil)

// Name implements core.NF.
func (f *Filter) Name() string { return f.name }

var _ core.FlowCloser = (*Filter)(nil)

// FlowClosed implements core.FlowCloser: the flow's cached ACL
// decision is released.
func (f *Filter) FlowClosed(fid flow.FID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ft, ok := f.byFID[fid]; ok {
		delete(f.byFID, fid)
		delete(f.cache, ft)
	}
}

// Stats returns a snapshot of the decision counters.
func (f *Filter) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decide runs or reuses the ACL decision for a tuple, indexing it by
// FID for FlowClosed cleanup. It returns (deny, cacheHit).
func (f *Filter) decide(fid flow.FID, ft packet.FiveTuple) (bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.byFID[fid] = ft
	if deny, ok := f.cache[ft]; ok {
		return deny, true
	}
	deny := f.defaultDeny
	for _, r := range f.rules {
		if r.Matches(ft) {
			deny = r.Deny
			break
		}
	}
	f.cache[ft] = deny
	f.stats.Scanned++
	if deny {
		f.stats.Denied++
	} else {
		f.stats.Allowed++
	}
	return deny, false
}

// Process implements core.NF.
func (f *Filter) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("ipfilter %s: %w", f.name, err)
	}
	deny, hit := f.decide(ctx.FID, ft)
	if hit {
		ctx.Charge(ctx.Model.FlowCacheHit)
	} else {
		ctx.Charge(ctx.Model.ACLScanCost(len(f.rules)))
	}
	if deny {
		if err := ctx.AddHeaderAction(mat.Drop()); err != nil {
			return 0, err
		}
		ctx.Charge(ctx.Model.DropAction)
		return core.VerdictDrop, nil
	}
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}

// PadRules appends synthetic never-matching deny rules until the ACL
// has n entries, so microbenchmarks control the linear-scan length the
// way the paper's testbed configuration did.
func PadRules(rules []Rule, n int) []Rule {
	out := append([]Rule(nil), rules...)
	for i := len(out); i < n; i++ {
		out = append(out, Rule{
			Src:  Prefix{Addr: [4]byte{203, 0, 113, byte(i)}, Bits: 32},
			Dst:  Prefix{Addr: [4]byte{203, 0, 113, byte(i)}, Bits: 32},
			Deny: true,
		})
	}
	return out
}
