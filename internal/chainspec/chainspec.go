// Package chainspec parses declarative JSON descriptions of service
// chains into instantiated NF slices, so deployments can be described
// in configuration rather than code:
//
//	{
//	  "name": "edge-chain",
//	  "platform": "onvm",
//	  "nfs": [
//	    {"type": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "198.51.100.1"},
//	    {"type": "maglev", "backends": [
//	        {"name": "web-1", "ip": "192.168.1.10", "port": 8080},
//	        {"name": "web-2", "ip": "192.168.1.11", "port": 8080}]},
//	    {"type": "monitor"},
//	    {"type": "ipfilter", "acl_size": 100}
//	  ]
//	}
package chainspec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/dosdefender"
	"github.com/fastpathnfv/speedybox/internal/nf/gateway"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/mazunat"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/ratelimiter"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/nf/synthetic"
	"github.com/fastpathnfv/speedybox/internal/nf/vpn"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// Spec is a complete chain description.
type Spec struct {
	// Name labels the chain.
	Name string `json:"name"`
	// Platform selects the execution model: "bess" (default) or
	// "onvm".
	Platform string `json:"platform,omitempty"`
	// NFs is the service chain in order.
	NFs []NFSpec `json:"nfs"`
}

// BackendSpec is one Maglev backend.
type BackendSpec struct {
	Name string `json:"name"`
	IP   string `json:"ip"`
	Port uint16 `json:"port"`
}

// NFSpec describes one network function. Type selects the NF; the
// remaining fields are type-specific and ignored by other types.
type NFSpec struct {
	// Type is one of: ipfilter, monitor, snort, maglev, mazunat,
	// vpn-encap, vpn-decap, dos, gateway, ratelimiter, synthetic.
	Type string `json:"type"`
	// Name overrides the auto-generated instance name.
	Name string `json:"name,omitempty"`

	// ipfilter
	ACLSize     int  `json:"acl_size,omitempty"`
	DefaultDeny bool `json:"default_deny,omitempty"`

	// snort: inline rules in Snort syntax; empty selects the default
	// rule set.
	Rules string `json:"rules,omitempty"`

	// maglev
	Backends  []BackendSpec `json:"backends,omitempty"`
	TableSize int           `json:"table_size,omitempty"`

	// mazunat
	InternalPrefix string `json:"internal_prefix,omitempty"`
	ExternalIP     string `json:"external_ip,omitempty"`

	// dos
	SYNThreshold uint64 `json:"syn_threshold,omitempty"`

	// ratelimiter
	Quota uint64 `json:"quota,omitempty"`

	// gateway
	NextHopMAC string   `json:"next_hop_mac,omitempty"`
	VoicePorts []uint16 `json:"voice_ports,omitempty"`
	VideoPorts []uint16 `json:"video_ports,omitempty"`

	// synthetic
	Cycles uint64 `json:"cycles,omitempty"`
	Class  string `json:"class,omitempty"` // "read" (default), "write", "ignore"
}

// Parse decodes and validates a JSON spec.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpecInvalid, err)
	}
	if len(s.NFs) == 0 {
		return nil, ErrEmptyChain
	}
	switch s.Platform {
	case "", "bess", "onvm":
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownPlatform, s.Platform)
	}
	return &s, nil
}

// Build instantiates the chain.
func (s *Spec) Build() ([]core.NF, error) {
	chain := make([]core.NF, 0, len(s.NFs))
	for i, n := range s.NFs {
		name := n.Name
		if name == "" {
			name = fmt.Sprintf("%s%d", n.Type, i+1)
		}
		nf, err := n.build(name)
		if err != nil {
			return nil, fmt.Errorf("chainspec: nf %d (%s): %w", i, n.Type, err)
		}
		chain = append(chain, nf)
	}
	return chain, nil
}

// Instantiate builds this one NF under the given instance name.
// Multi-chain topologies (internal/topo) use it to construct shared NF
// instances once and wire them into several chains by name.
func (n NFSpec) Instantiate(name string) (core.NF, error) {
	return n.build(name)
}

// ParseCIDR parses "a.b.c.d/n" into a prefix and mask length, shared
// with topology policy rules that match flows by source prefix.
func ParseCIDR(s string) ([4]byte, int, error) {
	return parseCIDR(s)
}

// Bounds on NF sizes read from a spec or a plan. The builders allocate
// in proportion to them, and POST /v1/plan hands a request body
// straight to Compile, so an unchecked size would let a 70-byte body
// make the daemon build billions of rules.
const (
	// maxACLSize caps an ipfilter's rule count.
	maxACLSize = 65536
	// maxTableSize caps a Maglev lookup table at the Maglev paper's
	// production size.
	maxTableSize = 65537
)

func (n NFSpec) build(name string) (core.NF, error) {
	switch n.Type {
	case "ipfilter":
		if n.ACLSize < 0 || n.ACLSize > maxACLSize {
			return nil, fmt.Errorf("%w: acl_size %d outside [0, %d]", ErrNFConfig, n.ACLSize, maxACLSize)
		}
		size := n.ACLSize
		if size == 0 {
			size = 100
		}
		return ipfilter.New(ipfilter.Config{
			Name:        name,
			Rules:       ipfilter.PadRules(nil, size),
			DefaultDeny: n.DefaultDeny,
		})
	case "monitor":
		return monitor.New(name)
	case "snort":
		rules := snort.DefaultRules()
		if n.Rules != "" {
			var err error
			rules, err = snort.ParseRules(n.Rules)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrNFConfig, err)
			}
		}
		return snort.New(name, rules)
	case "maglev":
		if len(n.Backends) == 0 {
			return nil, fmt.Errorf("%w: maglev needs backends", ErrNFConfig)
		}
		if n.TableSize < 0 || n.TableSize > maxTableSize {
			return nil, fmt.Errorf("%w: table_size %d outside [0, %d]", ErrNFConfig, n.TableSize, maxTableSize)
		}
		backends := make([]maglev.Backend, len(n.Backends))
		for i, b := range n.Backends {
			ip, err := parseIPv4(b.IP)
			if err != nil {
				return nil, fmt.Errorf("backend %d: %w", i, err)
			}
			backends[i] = maglev.Backend{Name: b.Name, IP: ip, Port: b.Port}
		}
		return maglev.New(maglev.Config{Name: name, Backends: backends, TableSize: n.TableSize})
	case "mazunat":
		prefix, bits, err := parseCIDR(n.InternalPrefix)
		if err != nil {
			return nil, fmt.Errorf("internal_prefix: %w", err)
		}
		ext, err := parseIPv4(n.ExternalIP)
		if err != nil {
			return nil, fmt.Errorf("external_ip: %w", err)
		}
		return mazunat.New(mazunat.Config{
			Name: name, InternalPrefix: prefix, InternalBits: bits, ExternalIP: ext,
		})
	case "vpn-encap":
		return vpn.New(vpn.Config{Name: name, Mode: vpn.ModeEncap})
	case "vpn-decap":
		return vpn.New(vpn.Config{Name: name, Mode: vpn.ModeDecap})
	case "dos":
		return dosdefender.New(dosdefender.Config{Name: name, SYNThreshold: n.SYNThreshold})
	case "ratelimiter":
		return ratelimiter.New(ratelimiter.Config{Name: name, Quota: n.Quota})
	case "gateway":
		mac, err := parseMAC(n.NextHopMAC)
		if err != nil {
			return nil, fmt.Errorf("next_hop_mac: %w", err)
		}
		return gateway.New(gateway.Config{
			Name: name, NextHopMAC: mac,
			VoicePorts: n.VoicePorts, VideoPorts: n.VideoPorts,
		})
	case "synthetic":
		class := sfunc.ClassRead
		switch n.Class {
		case "", "read":
		case "write":
			class = sfunc.ClassWrite
		case "ignore":
			class = sfunc.ClassIgnore
		default:
			return nil, fmt.Errorf("%w: unknown class %q", ErrNFConfig, n.Class)
		}
		return synthetic.New(synthetic.Config{Name: name, Cycles: n.Cycles, Class: class})
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownNFType, n.Type)
	}
}

// parseIPv4 parses dotted-quad notation.
func parseIPv4(s string) ([4]byte, error) {
	var out [4]byte
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return out, fmt.Errorf("%w: bad IPv4 %q", ErrBadAddress, s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return out, fmt.Errorf("%w: bad IPv4 %q: %w", ErrBadAddress, s, err)
		}
		out[i] = byte(v)
	}
	return out, nil
}

// parseCIDR parses "a.b.c.d/n".
func parseCIDR(s string) ([4]byte, int, error) {
	addr, bitsStr, ok := strings.Cut(s, "/")
	if !ok {
		return [4]byte{}, 0, fmt.Errorf("%w: bad CIDR %q", ErrBadAddress, s)
	}
	ip, err := parseIPv4(addr)
	if err != nil {
		return [4]byte{}, 0, err
	}
	bits, err := strconv.Atoi(bitsStr)
	if err != nil || bits < 1 || bits > 32 {
		return [4]byte{}, 0, fmt.Errorf("%w: bad prefix length in %q", ErrBadAddress, s)
	}
	return ip, bits, nil
}

// parseMAC parses colon-separated hex notation.
func parseMAC(s string) ([6]byte, error) {
	var out [6]byte
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return out, fmt.Errorf("%w: bad MAC %q", ErrBadAddress, s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return out, fmt.Errorf("%w: bad MAC %q: %w", ErrBadAddress, s, err)
		}
		out[i] = byte(v)
	}
	return out, nil
}
