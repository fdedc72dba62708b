package packet

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickParseNeverPanics feeds arbitrary byte soup to the parser:
// it must return an error or a consistent parse, never panic or read
// out of bounds (the race/bounds checking of `go test` enforces the
// latter).
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		p := New(data)
		if err := p.Parse(); err != nil {
			return true
		}
		// A successful parse must yield in-bounds offsets and a
		// usable 5-tuple.
		h, ok := p.Headers()
		if !ok {
			return false
		}
		if h.PayloadOff > len(data) || h.L4Off > h.PayloadOff || h.IPOff > h.L4Off {
			return false
		}
		_, err := p.FiveTuple()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickParseMutatedValidFrames takes valid frames and flips random
// bytes: parsing must stay panic-free and any successful parse must
// stay self-consistent.
func TestQuickParseMutatedValidFrames(t *testing.T) {
	base := MustBuild(Spec{
		SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: ProtoTCP,
		Payload: []byte("payload for mutation"),
	}).Data()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, len(base))
		copy(data, base)
		for flips := rng.Intn(8); flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		// Occasionally truncate too.
		if rng.Intn(3) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		p := New(data)
		if err := p.Parse(); err != nil {
			return true
		}
		h, _ := p.Headers()
		return h.PayloadOff <= len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickFinalizeChecksumsAfterMutation: finalize must succeed on
// any successfully parsed frame and leave it verifiable.
func TestQuickFinalizeAlwaysVerifies(t *testing.T) {
	f := func(payload []byte, dip [4]byte, dport uint16) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		p, err := Build(Spec{
			SrcIP: IP4(1, 2, 3, 4), DstIP: dip,
			SrcPort: 9999, DstPort: dport, Proto: ProtoUDP,
			Payload: payload,
		})
		if err != nil {
			return false
		}
		if err := p.Set(FieldDstIP, []byte{5, 6, 7, 8}); err != nil {
			return false
		}
		if err := p.FinalizeChecksums(); err != nil {
			return false
		}
		return p.VerifyChecksums()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ahShortTotalLength is a 54-byte Ethernet/IPv4/AH/UDP frame whose IPv4
// total length (29) is shorter than the 40 header bytes it fronts.
// Parse must reject it: accepted, it lets DecapAH build a frame that
// fails to parse, and a mutator that kept that frame would leave
// OutermostAH slicing past its end.
const ahShortTotalLength = "30303030303030303030303008004530001d303030303033303030303030303030301130303030303030303030303030303030303030"

func TestParseRejectsTotalLengthShorterThanHeaders(t *testing.T) {
	data, err := hex.DecodeString(ahShortTotalLength)
	if err != nil {
		t.Fatal(err)
	}
	p := New(data)
	if err := p.Parse(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Parse = %v, want ErrTruncated", err)
	}
	exercisePacket(t, p)
	if err := p.DecapAH(); !errors.Is(err, ErrNotParsed) {
		t.Errorf("DecapAH on a rejected frame = %v, want ErrNotParsed", err)
	}
	if _, _, ok := p.OutermostAH(); ok {
		t.Error("OutermostAH reported a header on a rejected frame")
	}
}

func TestEncapAHErrorLeavesPacketUnchanged(t *testing.T) {
	// An IPv4 total length of 65530 has no room for another 12-byte
	// AH: the rewritten length wraps and the rewritten frame fails to
	// parse, which must leave the original intact.
	p := MustBuild(Spec{SrcIP: IP4(1, 1, 1, 1), DstIP: IP4(2, 2, 2, 2), Proto: ProtoUDP,
		Payload: make([]byte, 65530-IPv4HeaderLen-UDPHeaderLen)})
	before := string(p.Data())
	hdr, _ := p.Headers()
	if err := p.EncapAH(1, 2); !errors.Is(err, ErrTruncated) {
		t.Fatalf("EncapAH = %v, want ErrTruncated", err)
	}
	if h, ok := p.Headers(); string(p.Data()) != before || h != hdr || !ok {
		t.Error("failed EncapAH changed the packet")
	}
}

// exercisePacket calls every accessor; none may panic, and a parsed
// packet's offsets must lie within its frame.
func exercisePacket(t *testing.T, p *Packet) {
	t.Helper()
	_, _, _ = p.Len(), p.Dropped(), p.String()
	if h, ok := p.Headers(); ok && (h.IPOff > h.L4Off || h.L4Off > h.PayloadOff || h.PayloadOff > p.Len()) {
		t.Fatalf("inconsistent offsets %+v for a %d-byte frame", h, p.Len())
	}
	_ = p.Payload()
	_, _ = p.FiveTuple()
	_, _, _ = p.FlowKey()
	_, _ = p.TCPFlags()
	_, _, _, _, _ = p.SrcIP(), p.DstIP(), p.SrcPort(), p.DstPort(), p.TTL()
	for f := FieldSrcMAC; f <= FieldDstPort; f++ {
		_, _ = p.Get(f)
	}
	_, _ = p.OutermostVLAN()
	_, _, _ = p.OutermostAH()
	_ = p.VerifyChecksums()
}

// fuzzMutators is every packet mutator, in an order that lets later
// ones see the effects of earlier ones (decap before and after encap).
var fuzzMutators = []struct {
	name string
	run  func(*Packet) error
}{
	{"DecapAH", (*Packet).DecapAH},
	{"DecapVLAN", (*Packet).DecapVLAN},
	{"EncapAH", func(p *Packet) error { return p.EncapAH(0x1234, 7) }},
	{"EncapVLAN", func(p *Packet) error { return p.EncapVLAN(42) }},
	{"Encap(bad type)", func(p *Packet) error { return p.Encap(ExtraHeader{Type: 99}) }},
	{"Decap(bad type)", func(p *Packet) error { return p.Decap(99) }},
	{"Set(DIP)", func(p *Packet) error { return p.Set(FieldDstIP, []byte{9, 9, 9, 9}) }},
	{"Set(DPort)", func(p *Packet) error { return p.Set(FieldDstPort, PutUint16(8080)) }},
	{"Set(bad width)", func(p *Packet) error { return p.Set(FieldTTL, []byte{1, 2}) }},
	{"Set(bad field)", func(p *Packet) error { return p.Set(0, nil) }},
	{"SetTCPFlags", func(p *Packet) error { return p.SetTCPFlags(TCPFlagACK) }},
	{"DecrementTTL", func(p *Packet) error { _, err := p.DecrementTTL(); return err }},
	{"FinalizeChecksums", (*Packet).FinalizeChecksums},
	{"Decap(AH)", func(p *Packet) error { return p.Decap(HeaderAH) }},
	{"Decap(VLAN)", func(p *Packet) error { return p.Decap(HeaderVLAN) }},
}

// FuzzParse feeds arbitrary frames to Parse, then every accessor and
// every mutator: nothing may panic, and a mutator that returns an
// error must leave the frame and its parse state unchanged.
func FuzzParse(f *testing.F) {
	repro, _ := hex.DecodeString(ahShortTotalLength)
	f.Add(repro)
	tcp := MustBuild(Spec{SrcIP: IP4(10, 0, 0, 1), DstIP: IP4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, TCPFlags: TCPFlagSYN, Payload: []byte("GET /")})
	f.Add(tcp.Data())
	udp := MustBuild(Spec{SrcIP: IP4(10, 0, 0, 3), DstIP: IP4(10, 0, 0, 4),
		SrcPort: 53, DstPort: 53, Proto: ProtoUDP, Payload: []byte("q")})
	f.Add(udp.Data())
	if err := tcp.EncapAH(1, 1); err != nil {
		f.Fatal(err)
	}
	if err := tcp.EncapVLAN(5); err != nil {
		f.Fatal(err)
	}
	f.Add(tcp.Data())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(append([]byte(nil), data...))
		_ = p.Parse()
		exercisePacket(t, p)
		for _, m := range fuzzMutators {
			before := string(p.Data())
			hdr, parsed := p.Headers()
			if err := m.run(p); err != nil {
				if h, ok := p.Headers(); string(p.Data()) != before || h != hdr || ok != parsed {
					t.Fatalf("%s failed (%v) but changed the packet", m.name, err)
				}
			}
			exercisePacket(t, p)
		}
	})
}
