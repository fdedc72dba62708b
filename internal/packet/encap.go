package packet

import (
	"encoding/binary"
	"fmt"
)

// HeaderType identifies a header that Encap/Decap actions push or pop.
// It is the unit of the encap/decap stack the Global MAT simulates
// during consolidation (paper §V-B).
type HeaderType int

// Supported encapsulation header types.
const (
	// HeaderAH is the IPsec-style authentication header a VPN NF adds
	// (paper §IV-A1: "VPNs add an Authentication Header (AH) for each
	// packet before forwarding").
	HeaderAH HeaderType = iota + 1
	// HeaderVLAN is an 802.1Q tag, exercising a second, L2-level
	// encapsulation point.
	HeaderVLAN
)

// String returns the header type name.
func (t HeaderType) String() string {
	switch t {
	case HeaderAH:
		return "AH"
	case HeaderVLAN:
		return "VLAN"
	default:
		return fmt.Sprintf("HeaderType(%d)", int(t))
	}
}

// ExtraHeader describes one header to encapsulate: its type plus the
// type-specific parameters.
type ExtraHeader struct {
	// Type selects the header layout.
	Type HeaderType
	// SPI is the security parameter index for HeaderAH.
	SPI uint32
	// Seq is the sequence number for HeaderAH.
	Seq uint32
	// Tag is the VLAN ID (12 bits used) for HeaderVLAN.
	Tag uint16
}

// EncapAH inserts an authentication header between the IPv4 header and
// whatever follows it, updating the IP protocol chain and total
// length. The packet is re-parsed on success and unchanged on error.
func (p *Packet) EncapAH(spi, seq uint32) error {
	if !p.parsed {
		return ErrNotParsed
	}
	ip := p.hdr.IPOff
	insertAt := ip + IPv4HeaderLen
	oldProto := p.data[ip+9]

	ah := make([]byte, AHHeaderLen)
	ah[0] = oldProto
	ah[1] = (AHHeaderLen / 4) - 2 // RFC 4302 payload length encoding
	binary.BigEndian.PutUint32(ah[4:8], spi)
	binary.BigEndian.PutUint32(ah[8:12], seq)

	out := insertBytes(p.data, insertAt, ah)
	out[ip+9] = ProtoAH
	totLen := binary.BigEndian.Uint16(out[ip+2 : ip+4])
	binary.BigEndian.PutUint16(out[ip+2:ip+4], totLen+AHHeaderLen)
	return p.commit(out)
}

// DecapAH removes the outermost authentication header. It returns
// ErrNoHeader if the packet has none. On error the packet is unchanged.
func (p *Packet) DecapAH() error {
	if !p.parsed {
		return ErrNotParsed
	}
	if p.hdr.AHCount == 0 {
		return fmt.Errorf("%w: AH", ErrNoHeader)
	}
	ip := p.hdr.IPOff
	ahOff := ip + IPv4HeaderLen
	inner := p.data[ahOff] // next-header field
	out := removeBytes(p.data, ahOff, AHHeaderLen)
	out[ip+9] = inner
	totLen := binary.BigEndian.Uint16(out[ip+2 : ip+4])
	binary.BigEndian.PutUint16(out[ip+2:ip+4], totLen-AHHeaderLen)
	return p.commit(out)
}

// EncapVLAN pushes an 802.1Q tag directly after the MAC addresses. On
// error the packet is unchanged.
func (p *Packet) EncapVLAN(tag uint16) error {
	if !p.parsed {
		return ErrNotParsed
	}
	vlan := make([]byte, VLANTagLen)
	binary.BigEndian.PutUint16(vlan[0:2], EtherTypeVLAN)
	binary.BigEndian.PutUint16(vlan[2:4], tag&0x0fff)
	// The tag occupies the former EtherType position; the original
	// EtherType (and any existing tags) shift right by 4 bytes.
	return p.commit(insertBytes(p.data, 12, vlan))
}

// DecapVLAN pops the outermost 802.1Q tag. On error the packet is
// unchanged.
func (p *Packet) DecapVLAN() error {
	if !p.parsed {
		return ErrNotParsed
	}
	if p.hdr.VLANs == 0 {
		return fmt.Errorf("%w: VLAN", ErrNoHeader)
	}
	return p.commit(removeBytes(p.data, 12, VLANTagLen))
}

// Encap applies an ExtraHeader description, dispatching on type. On
// error the packet is unchanged.
func (p *Packet) Encap(h ExtraHeader) error {
	switch h.Type {
	case HeaderAH:
		return p.EncapAH(h.SPI, h.Seq)
	case HeaderVLAN:
		return p.EncapVLAN(h.Tag)
	default:
		return fmt.Errorf("%w: encap %v", ErrUnsupported, h.Type)
	}
}

// Decap removes the outermost header of the given type. On error the
// packet is unchanged.
func (p *Packet) Decap(t HeaderType) error {
	switch t {
	case HeaderAH:
		return p.DecapAH()
	case HeaderVLAN:
		return p.DecapVLAN()
	default:
		return fmt.Errorf("%w: decap %v", ErrUnsupported, t)
	}
}

// OutermostVLAN returns the outermost VLAN tag value, if any.
func (p *Packet) OutermostVLAN() (uint16, bool) {
	if !p.parsed || p.hdr.VLANs == 0 {
		return 0, false
	}
	return binary.BigEndian.Uint16(p.data[14:16]) & 0x0fff, true
}

// OutermostAH returns the SPI and sequence of the outermost AH header,
// if any.
func (p *Packet) OutermostAH() (spi, seq uint32, ok bool) {
	if !p.parsed || p.hdr.AHCount == 0 {
		return 0, 0, false
	}
	off := p.hdr.IPOff + IPv4HeaderLen
	return binary.BigEndian.Uint32(p.data[off+4 : off+8]),
		binary.BigEndian.Uint32(p.data[off+8 : off+12]), true
}

// commit installs out, a rewritten copy of the frame, if it parses.
// On error the packet keeps its old frame and parse state, so header
// mutators never leave offsets that disagree with the buffer.
func (p *Packet) commit(out []byte) error {
	next := Packet{data: out}
	if err := next.Parse(); err != nil {
		return err
	}
	p.data, p.hdr = next.data, next.hdr
	return nil
}

func insertBytes(data []byte, at int, ins []byte) []byte {
	out := make([]byte, 0, len(data)+len(ins))
	out = append(out, data[:at]...)
	out = append(out, ins...)
	out = append(out, data[at:]...)
	return out
}

func removeBytes(data []byte, at, n int) []byte {
	out := make([]byte, 0, len(data)-n)
	out = append(out, data[:at]...)
	out = append(out, data[at+n:]...)
	return out
}
