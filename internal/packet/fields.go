package packet

import (
	"encoding/binary"
	"fmt"
)

// Field identifies a modifiable packet-header field. The Modify header
// action (paper §IV-A1) is expressed as (Field, value) pairs, and the
// Global MAT consolidates them per §V-B.
type Field int

// The fields the substrate supports. Enum starts at one so that the
// zero value is invalid and accidental zero-initialised actions fail
// loudly.
const (
	// FieldSrcMAC is the 6-byte Ethernet source address.
	FieldSrcMAC Field = iota + 1
	// FieldDstMAC is the 6-byte Ethernet destination address.
	FieldDstMAC
	// FieldSrcIP is the 4-byte IPv4 source address.
	FieldSrcIP
	// FieldDstIP is the 4-byte IPv4 destination address.
	FieldDstIP
	// FieldTTL is the 1-byte IPv4 time-to-live.
	FieldTTL
	// FieldDSCP is the 1-byte IPv4 TOS/DSCP field.
	FieldDSCP
	// FieldSrcPort is the 2-byte transport source port.
	FieldSrcPort
	// FieldDstPort is the 2-byte transport destination port.
	FieldDstPort
)

// fieldNames is indexed by Field for String.
var fieldNames = [...]string{
	FieldSrcMAC:  "SrcMAC",
	FieldDstMAC:  "DstMAC",
	FieldSrcIP:   "SIP",
	FieldDstIP:   "DIP",
	FieldTTL:     "TTL",
	FieldDSCP:    "DSCP",
	FieldSrcPort: "SPort",
	FieldDstPort: "DPort",
}

// String returns the short field name used in the paper's examples
// (e.g. modify(DIP, DPort)).
func (f Field) String() string {
	if f < FieldSrcMAC || int(f) >= len(fieldNames) {
		return fmt.Sprintf("Field(%d)", int(f))
	}
	return fieldNames[f]
}

// Size returns the field width in bytes, or 0 for an invalid field.
func (f Field) Size() int {
	switch f {
	case FieldSrcMAC, FieldDstMAC:
		return 6
	case FieldSrcIP, FieldDstIP:
		return 4
	case FieldTTL, FieldDSCP:
		return 1
	case FieldSrcPort, FieldDstPort:
		return 2
	default:
		return 0
	}
}

// Valid reports whether f is one of the defined fields.
func (f Field) Valid() bool { return f.Size() != 0 }

// offset returns the field's byte offset within a parsed frame.
func (p *Packet) fieldOffset(f Field) (int, error) {
	if !p.parsed {
		return 0, ErrNotParsed
	}
	switch f {
	case FieldDstMAC:
		return 0, nil
	case FieldSrcMAC:
		return 6, nil
	case FieldDSCP:
		return p.hdr.IPOff + 1, nil
	case FieldTTL:
		return p.hdr.IPOff + 8, nil
	case FieldSrcIP:
		return p.hdr.IPOff + 12, nil
	case FieldDstIP:
		return p.hdr.IPOff + 16, nil
	case FieldSrcPort:
		return p.hdr.L4Off, nil
	case FieldDstPort:
		return p.hdr.L4Off + 2, nil
	default:
		return 0, fmt.Errorf("packet: invalid field %v", f)
	}
}

// Get reads a header field into a freshly allocated slice.
func (p *Packet) Get(f Field) ([]byte, error) {
	off, err := p.fieldOffset(f)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.Size())
	copy(out, p.data[off:off+f.Size()])
	return out, nil
}

// Set overwrites a header field. The value length must equal the field
// size. Checksums are NOT recomputed; callers batch modifications and
// call FinalizeChecksums once, matching the paper's consolidation of
// trailer fields at the end (§V-B). Set validates before it writes, so
// on error the packet is unchanged.
func (p *Packet) Set(f Field, value []byte) error {
	if len(value) != f.Size() {
		return fmt.Errorf("packet: field %v needs %d bytes, got %d", f, f.Size(), len(value))
	}
	off, err := p.fieldOffset(f)
	if err != nil {
		return err
	}
	copy(p.data[off:off+f.Size()], value)
	return nil
}

// SrcIP returns the IPv4 source address of a parsed packet.
func (p *Packet) SrcIP() [4]byte { return p.ip4(12) }

// DstIP returns the IPv4 destination address of a parsed packet.
func (p *Packet) DstIP() [4]byte { return p.ip4(16) }

func (p *Packet) ip4(rel int) [4]byte {
	var a [4]byte
	if p.parsed {
		copy(a[:], p.data[p.hdr.IPOff+rel:p.hdr.IPOff+rel+4])
	}
	return a
}

// SrcPort returns the transport source port of a parsed packet.
func (p *Packet) SrcPort() uint16 {
	if !p.parsed {
		return 0
	}
	return binary.BigEndian.Uint16(p.data[p.hdr.L4Off : p.hdr.L4Off+2])
}

// DstPort returns the transport destination port of a parsed packet.
func (p *Packet) DstPort() uint16 {
	if !p.parsed {
		return 0
	}
	return binary.BigEndian.Uint16(p.data[p.hdr.L4Off+2 : p.hdr.L4Off+4])
}

// TTL returns the IPv4 TTL of a parsed packet.
func (p *Packet) TTL() uint8 {
	if !p.parsed {
		return 0
	}
	return p.data[p.hdr.IPOff+8]
}

// DecrementTTL decreases the TTL by one, saturating at zero. It
// returns the new value.
func (p *Packet) DecrementTTL() (uint8, error) {
	if !p.parsed {
		return 0, ErrNotParsed
	}
	off := p.hdr.IPOff + 8
	if p.data[off] > 0 {
		p.data[off]--
	}
	return p.data[off], nil
}

// PutUint16 and PutUint32 are conveniences for building field values.
func PutUint16(v uint16) []byte {
	b := make([]byte, 2)
	binary.BigEndian.PutUint16(b, v)
	return b
}

// PutUint32 encodes v as 4 big-endian bytes (e.g. an IPv4 address).
func PutUint32(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}
