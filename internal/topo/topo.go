package topo

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// Chain is one built chain of a topology.
type Chain struct {
	// Name is the chain's spec name (also its metric ChainLabel).
	Name string
	// Weight is the fair-share scheduling weight.
	Weight int
	// Platform hosts the chain's engine (the BESS model — a topology
	// is a scheduling construct, and the single-core run-to-completion
	// model composes cleanly across chains).
	Platform platform.Platform
}

// compiled is one classification rule in matchable form.
type compiled struct {
	chain   int
	tenant  int32
	hasCIDR bool
	prefix  [4]byte
	bits    int
	portMin uint16
	portMax uint16
	proto   uint8 // 0 = any
}

func (p *compiled) match(ft packet.FiveTuple) bool {
	if p.proto != 0 && ft.Proto != p.proto {
		return false
	}
	if p.hasCIDR && !cidrContains(p.prefix, p.bits, ft.SrcIP) {
		return false
	}
	if p.portMin != 0 || p.portMax != 0 {
		max := p.portMax
		if max == 0 {
			max = p.portMin
		}
		if ft.DstPort < p.portMin || ft.DstPort > max {
			return false
		}
	}
	return true
}

// cidrContains reports whether ip falls inside prefix/bits.
func cidrContains(prefix [4]byte, bits int, ip [4]byte) bool {
	for i := 0; i < 4 && bits > 0; i++ {
		b := bits
		if b > 8 {
			b = 8
		}
		mask := byte(0xff << (8 - b))
		if prefix[i]&mask != ip[i]&mask {
			return false
		}
		bits -= b
	}
	return true
}

// BuildConfig configures topology construction.
type BuildConfig struct {
	// Options is the per-engine base configuration (baseline vs
	// SpeedyBox, ablations, faults). ChainLabel, Admission and
	// Telemetry are set per chain by Build and must be left zero.
	Options core.Options
	// Hub, when set, is the shared telemetry hub: every chain engine
	// registers its metrics there under its {chain=...} label, and
	// Build adds the per-tenant quota gauges.
	Hub *telemetry.Hub
}

// Topology is a built multi-chain deployment: per-chain engines, the
// shared-NF registry, the flow classifier and the tenant admission
// policy, ready to process packets directly or through a fair-share
// MultiQueue.
type Topology struct {
	name      string
	spec      *Spec
	chains    []Chain
	byName    map[string]int
	shared    map[string]core.NF
	policies  []compiled
	admission *TenantAdmission

	// TamperRoute is a test-only hook: when set, it overrides the
	// classifier's chain decision (receiving the packet and the honest
	// chain index) so the oracle's teeth test can prove that routing a
	// flow down the wrong chain is detected as a divergence.
	TamperRoute func(pkt *packet.Packet, chain int) int
}

// Build instantiates the topology: shared NF instances are constructed
// once and wired into every chain naming them, each chain gets its own
// engine (labeled metrics, shared admission), and the policy list is
// compiled for per-packet matching.
func Build(spec *Spec, cfg BuildConfig) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		name:      spec.Name,
		spec:      spec,
		byName:    make(map[string]int, len(spec.Chains)),
		shared:    make(map[string]core.NF),
		admission: NewTenantAdmission(spec.Tenants),
	}
	for ci, cs := range spec.Chains {
		chain := make([]core.NF, 0, len(cs.NFs))
		for ni, ns := range cs.NFs {
			name := ns.Name
			if name == "" {
				// Private instance: qualify by chain so identical
				// anonymous NFs in different chains never collide.
				name = fmt.Sprintf("%s.%s%d", cs.Name, ns.Type, ni+1)
			}
			inst := t.shared[name]
			if inst == nil {
				var err error
				inst, err = ns.Instantiate(name)
				if err != nil {
					return nil, fmt.Errorf("topo: chain %q nf %d: %w", cs.Name, ni, err)
				}
				t.shared[name] = inst
			}
			chain = append(chain, inst)
		}
		opts := cfg.Options
		opts.ChainLabel = cs.Name
		opts.Admission = t.admission
		opts.Telemetry = cfg.Hub
		p, err := bess.New(bess.Config{Chain: chain, Options: opts})
		if err != nil {
			return nil, fmt.Errorf("topo: chain %q: %w", cs.Name, err)
		}
		weight := cs.Weight
		if weight == 0 {
			weight = 1
		}
		t.byName[cs.Name] = ci
		t.chains = append(t.chains, Chain{Name: cs.Name, Weight: weight, Platform: p})
	}
	for _, ps := range spec.Policies {
		c := compiled{chain: t.byName[ps.Chain], tenant: ps.Tenant,
			portMin: ps.DstPortMin, portMax: ps.DstPortMax}
		if ps.SrcCIDR != "" {
			prefix, bits, err := chainspec.ParseCIDR(ps.SrcCIDR)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrPolicyInvalid, err)
			}
			c.hasCIDR, c.prefix, c.bits = true, prefix, bits
		}
		switch ps.Proto {
		case "tcp":
			c.proto = packet.ProtoTCP
		case "udp":
			c.proto = packet.ProtoUDP
		}
		t.policies = append(t.policies, c)
	}
	if cfg.Hub != nil {
		t.registerTenantMetrics(cfg.Hub)
	}
	return t, nil
}

// registerTenantMetrics publishes per-tenant quota usage and denial
// series on the shared hub.
func (t *Topology) registerTenantMetrics(hub *telemetry.Hub) {
	reg := hub.Registry
	for _, ts := range t.spec.Tenants {
		id := ts.ID
		reg.GaugeFunc(fmt.Sprintf(`speedybox_tenant_rules{tenant="%d"}`, id),
			"Concurrently held Global MAT rules per tenant",
			func() float64 { return float64(t.admission.RulesHeld(id)) })
		reg.GaugeFunc(fmt.Sprintf(`speedybox_tenant_events{tenant="%d"}`, id),
			"Concurrently held Event Table registrations per tenant",
			func() float64 { return float64(t.admission.EventsHeld(id)) })
		reg.CounterFunc(fmt.Sprintf(`speedybox_tenant_rule_denied_total{tenant="%d"}`, id),
			"Rule installs refused by the tenant's quota",
			func() uint64 { return t.admission.RuleDenials(id) })
		reg.CounterFunc(fmt.Sprintf(`speedybox_tenant_event_denied_total{tenant="%d"}`, id),
			"Event registrations refused by the tenant's cap",
			func() uint64 { return t.admission.EventDenials(id) })
	}
}

// Name returns the topology's spec name.
func (t *Topology) Name() string { return t.name }

// Spec returns the spec the topology was built from.
func (t *Topology) Spec() *Spec { return t.spec }

// NumChains returns the chain count.
func (t *Topology) NumChains() int { return len(t.chains) }

// Chain returns the i-th built chain.
func (t *Topology) Chain(i int) *Chain { return &t.chains[i] }

// ChainIndex resolves a chain name to its index, -1 when unknown.
func (t *Topology) ChainIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// Engine returns the i-th chain's engine.
func (t *Topology) Engine(i int) *core.Engine { return t.chains[i].Platform.Engine() }

// NF returns a constructed NF instance by name (shared instances under
// their shared name, private ones under "chain.typeN"), or nil.
func (t *Topology) NF(name string) core.NF { return t.shared[name] }

// Admission returns the topology's tenant admission policy.
func (t *Topology) Admission() *TenantAdmission { return t.admission }

// classify resolves a packet to its chain and tenant by first-match
// policy; unparseable or unmatched packets go to the default chain
// (index 0) untagged.
func (t *Topology) classify(pkt *packet.Packet) (int, int32) {
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, 0
	}
	for i := range t.policies {
		if t.policies[i].match(ft) {
			return t.policies[i].chain, t.policies[i].tenant
		}
	}
	return 0, 0
}

// Route classifies the packet, stamps its tenant tag into the packet
// metadata, and returns the chain index. It is the route function for
// MultiQueue fair-share mode and the first half of Process.
func (t *Topology) Route(pkt *packet.Packet) int {
	chain, tenant := t.classify(pkt)
	pkt.Meta.Tenant = tenant
	if t.TamperRoute != nil {
		chain = t.TamperRoute(pkt, chain)
	}
	return chain
}

// Process routes one packet to its chain and runs it through that
// chain's engine, returning the engine result and the chain index.
func (t *Topology) Process(pkt *packet.Packet) (*core.PacketResult, int, error) {
	chain := t.Route(pkt)
	res, err := t.Engine(chain).ProcessPacket(pkt)
	return res, chain, err
}

// Classes returns the chains as fair-share scheduling classes for
// platform.MultiQueue.SetClasses.
func (t *Topology) Classes() []platform.ChainClass {
	out := make([]platform.ChainClass, len(t.chains))
	for i, c := range t.chains {
		out[i] = platform.ChainClass{Platform: c.Platform, Weight: c.Weight}
	}
	return out
}

// NewMultiQueue builds a fair-share multi-queue dispatcher over the
// topology: flow-hash partitioning across workers, weighted-round-
// robin chain scheduling within each worker, draining in batch-packet
// vectors (one-packet when batch <= 1).
func (t *Topology) NewMultiQueue(workers, batch int) (*platform.MultiQueue, error) {
	mq, err := platform.NewMultiQueue(t.chains[0].Platform, workers)
	if err != nil {
		return nil, err
	}
	mq.SetBatchSize(batch)
	if err := mq.SetClasses(t.Classes(), t.Route); err != nil {
		return nil, err
	}
	return mq, nil
}

// RunBatch feeds the packets through the topology in arrival order,
// splitting the stream into maximal same-chain runs and draining each
// through its chain platform in batchSize vectors. Measurements fold
// into one aggregate exactly as platform.RunBatch's.
func (t *Topology) RunBatch(pkts []*packet.Packet, batchSize int) (*platform.RunResult, error) {
	if batchSize <= 0 {
		batchSize = core.DefaultBatchSize
	}
	batches := make([]*platform.Batch, len(t.chains))
	res := platform.NewRunResult(t.chains[0].Platform.Model())
	for off := 0; off < len(pkts); {
		chain := t.Route(pkts[off])
		end := off + 1
		for end < len(pkts) && end-off < batchSize && t.Route(pkts[end]) == chain {
			end++
		}
		if batches[chain] == nil {
			batches[chain] = platform.NewBatch(batchSize)
		}
		ms, err := t.chains[chain].Platform.ProcessBatch(pkts[off:end], batches[chain])
		if err != nil {
			return nil, fmt.Errorf("topo: chain %q batch at packet %d: %w", t.chains[chain].Name, off, err)
		}
		res.Fold(ms)
		off = end
	}
	for i := range t.chains {
		res.Stats.Add(t.Engine(i).Stats())
	}
	return res, nil
}

// CheckpointAll snapshots every chain engine at a common packet
// boundary (the caller guarantees quiescence, as with single-engine
// Checkpoint). Shared NFs are snapshotted once per chain listing them;
// the blobs are identical at a boundary, so repeated restore is
// idempotent.
func (t *Topology) CheckpointAll() ([]*wal.Checkpoint, error) {
	out := make([]*wal.Checkpoint, len(t.chains))
	for i := range t.chains {
		cp, err := t.Engine(i).Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("topo: chain %q: %w", t.chains[i].Name, err)
		}
		out[i] = cp
	}
	return out, nil
}

// RestoreAll restores every chain engine from CheckpointAll's
// snapshots, in chain order. The topology must be freshly built from
// the same spec (fresh engines, fresh admission): restored rules are
// not re-charged against tenant quotas — a restart resets admission
// accounting along with the flow tables it guards.
func (t *Topology) RestoreAll(cps []*wal.Checkpoint) error {
	if len(cps) != len(t.chains) {
		return fmt.Errorf("topo: restore with %d checkpoints for %d chains", len(cps), len(t.chains))
	}
	for i, cp := range cps {
		if err := t.Engine(i).Restore(cp, nil); err != nil {
			return fmt.Errorf("topo: chain %q: %w", t.chains[i].Name, err)
		}
	}
	return nil
}

// Close releases every chain platform.
func (t *Topology) Close() error {
	var first error
	for i := range t.chains {
		if err := t.chains[i].Platform.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
