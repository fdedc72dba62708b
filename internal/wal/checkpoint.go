package wal

import (
	"encoding/binary"
	"hash/crc32"
	"sort"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Checkpoint is a consistent snapshot of the engine's restorable
// state: the declarative Global MAT rules at a recorded epoch, the
// flow-table occupancy, the classifier's logical clock and each
// Snapshotter NF's serialized state. WALSeq records the log position
// the snapshot reflects; Engine.Restore replays only the journal
// suffix past it.
type Checkpoint struct {
	// Epoch is the chain epoch the snapshot was taken under.
	Epoch uint64
	// WALSeq is the last WAL record sequence reflected in the
	// snapshot (zero when no WAL was attached).
	WALSeq uint64
	// Clock is the classifier's logical clock, preserved so
	// idle-expiry ages and degradation retry horizons stay monotonic
	// across a restore.
	Clock uint64
	// Flows is the flow-table occupancy: FID assignments and per-flow
	// counters. Restored flows are already established, so their first
	// post-restore packet classifies as Initial when the rule did not
	// survive — one slow-path pass re-records the closures.
	Flows []FlowEntry
	// Rules are the declarative Global MAT rules (no state-function
	// batches, no pending events) that restore directly executable.
	Rules []RuleImage
	// NFState maps NF name to its Snapshotter blob.
	NFState map[string][]byte
}

// FlowEntry is the serializable projection of a flow.Entry.
type FlowEntry struct {
	FID      flow.FID
	Tuple    packet.FiveTuple
	State    uint8
	Packets  uint64
	Bytes    uint64
	LastSeen uint64
}

// Checkpoint wire format: magic, version, CRC over the body, then the
// body with the same primitive encoding as WAL record bodies.
const (
	checkpointMagic   = 0x53424350 // "SBCP"
	checkpointVersion = 1
	// nfStateMinLen is the smallest encoded NF-state entry: a u16 name
	// length and a u32 blob length.
	nfStateMinLen = 6
)

// ErrBadCheckpoint reports a checkpoint blob that failed structural or
// checksum validation. Unlike a torn WAL tail — which is expected
// after a crash and skipped silently — a corrupt checkpoint has no
// usable prefix, so decoding fails loudly.
var ErrBadCheckpoint = errcode.Sentinel("wal.checkpoint_corrupt", "wal: corrupt or truncated checkpoint")

// Encode serializes the checkpoint. Maps are emitted in sorted key
// order so encoding is deterministic.
func (c *Checkpoint) Encode() []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, c.Epoch)
	body = binary.LittleEndian.AppendUint64(body, c.WALSeq)
	body = binary.LittleEndian.AppendUint64(body, c.Clock)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(c.Flows)))
	for _, f := range c.Flows {
		body = binary.LittleEndian.AppendUint32(body, uint32(f.FID))
		body = append(body, f.Tuple.SrcIP[:]...)
		body = append(body, f.Tuple.DstIP[:]...)
		body = appendUint16(body, f.Tuple.SrcPort)
		body = appendUint16(body, f.Tuple.DstPort)
		body = append(body, f.Tuple.Proto, f.State)
		body = binary.LittleEndian.AppendUint64(body, f.Packets)
		body = binary.LittleEndian.AppendUint64(body, f.Bytes)
		body = binary.LittleEndian.AppendUint64(body, f.LastSeen)
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(c.Rules)))
	for i := range c.Rules {
		body = appendRuleImage(body, &c.Rules[i])
	}
	names := make([]string, 0, len(c.NFState))
	for name := range c.NFState {
		names = append(names, name)
	}
	sort.Strings(names)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(names)))
	for _, name := range names {
		body = appendString(body, name)
		blob := c.NFState[name]
		body = binary.LittleEndian.AppendUint32(body, uint32(len(blob)))
		body = append(body, blob...)
	}

	out := make([]byte, 0, len(body)+12)
	out = binary.LittleEndian.AppendUint32(out, checkpointMagic)
	out = appendUint16(out, checkpointVersion)
	out = appendUint16(out, 0) // reserved
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// DecodeCheckpoint parses an encoded checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 12 {
		return nil, ErrBadCheckpoint
	}
	if binary.LittleEndian.Uint32(data) != checkpointMagic {
		return nil, ErrBadCheckpoint
	}
	if binary.LittleEndian.Uint16(data[4:]) != checkpointVersion {
		return nil, ErrBadCheckpoint
	}
	body := data[12:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[8:]) {
		return nil, ErrBadCheckpoint
	}
	rd := &byteReader{b: body, ok: true}
	c := &Checkpoint{}
	c.Epoch = rd.u64()
	c.WALSeq = rd.u64()
	c.Clock = rd.u64()
	nf := int(rd.u32())
	for i := 0; i < nf && rd.ok; i++ {
		var f FlowEntry
		f.FID = flow.FID(rd.u32())
		for j := 0; j < 4; j++ {
			f.Tuple.SrcIP[j] = rd.u8()
		}
		for j := 0; j < 4; j++ {
			f.Tuple.DstIP[j] = rd.u8()
		}
		f.Tuple.SrcPort = rd.u16()
		f.Tuple.DstPort = rd.u16()
		f.Tuple.Proto = rd.u8()
		f.State = rd.u8()
		f.Packets = rd.u64()
		f.Bytes = rd.u64()
		f.LastSeen = rd.u64()
		c.Flows = append(c.Flows, f)
	}
	nr := int(rd.u32())
	for i := 0; i < nr && rd.ok; i++ {
		im, rest, ok := decodeRuleImage(rd.b)
		if !ok {
			return nil, ErrBadCheckpoint
		}
		rd.b = rest
		c.Rules = append(c.Rules, *im)
	}
	ns := int(rd.u32())
	if rd.ok && ns > 0 {
		// The count is untrusted: size the map by what the remaining
		// bytes can hold (a name length and a blob length per entry).
		c.NFState = make(map[string][]byte, min(ns, len(rd.b)/nfStateMinLen))
	}
	for i := 0; i < ns && rd.ok; i++ {
		name := rd.str()
		blobLen := int(rd.u32())
		if !rd.ok || len(rd.b) < blobLen {
			return nil, ErrBadCheckpoint
		}
		c.NFState[name] = append([]byte(nil), rd.b[:blobLen]...)
		rd.b = rd.b[blobLen:]
	}
	if !rd.ok || len(rd.b) != 0 {
		return nil, ErrBadCheckpoint
	}
	return c, nil
}
