package wal

import (
	"encoding/binary"
	"hash/crc32"

	"github.com/fastpathnfv/speedybox/internal/errcode"
	"github.com/fastpathnfv/speedybox/internal/flow"
)

// MigrationRecord is the wire form of one flow's engine-side state in
// transit between cluster instances: the flow-table entry plus the
// restorable consolidated rule, encoded with the same primitives as
// checkpoints. Event registrations and state-function batches are
// closures bound to the old owner's Local MATs and deliberately do not
// travel — a record with a nil Rule tells the new owner to re-record
// the flow on its next packet (the always-correct demotion path), and
// the degradation-ladder reset is implicit: ladder deadlines are ticks
// of the old owner's logical clock, so the record simply omits them.
type MigrationRecord struct {
	Flow FlowEntry
	// Rule is the restorable consolidated rule, nil when the flow must
	// re-record on the new owner.
	Rule *RuleImage
}

// Migration wire format: magic, version, CRC over the body, then the
// body with the checkpoint primitive encoding.
const (
	migrationMagic   = 0x53424d52 // "SBMR"
	migrationVersion = 1
	// migrationRecordMinLen is the smallest encoded record: the flow
	// entry (FID, 5-tuple, state, three counters) and the rule flag.
	migrationRecordMinLen = 4 + 4 + 4 + 2 + 2 + 1 + 1 + 3*8 + 1
)

// ErrBadMigration reports a migration blob that failed structural or
// checksum validation. A torn migration record must never be partially
// adopted — the transfer fails whole and the flow stays on its old
// owner.
var ErrBadMigration = errcode.Sentinel("wal.migration_corrupt", "wal: corrupt or truncated migration record")

// EncodeMigration serializes a batch of migration records (one
// rebalance's transfer to a single destination).
func EncodeMigration(recs []MigrationRecord) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint32(body, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		body = binary.LittleEndian.AppendUint32(body, uint32(r.Flow.FID))
		body = append(body, r.Flow.Tuple.SrcIP[:]...)
		body = append(body, r.Flow.Tuple.DstIP[:]...)
		body = appendUint16(body, r.Flow.Tuple.SrcPort)
		body = appendUint16(body, r.Flow.Tuple.DstPort)
		body = append(body, r.Flow.Tuple.Proto, r.Flow.State)
		body = binary.LittleEndian.AppendUint64(body, r.Flow.Packets)
		body = binary.LittleEndian.AppendUint64(body, r.Flow.Bytes)
		body = binary.LittleEndian.AppendUint64(body, r.Flow.LastSeen)
		if r.Rule != nil {
			body = append(body, 1)
			body = appendRuleImage(body, r.Rule)
		} else {
			body = append(body, 0)
		}
	}
	out := make([]byte, 0, len(body)+12)
	out = binary.LittleEndian.AppendUint32(out, migrationMagic)
	out = appendUint16(out, migrationVersion)
	out = appendUint16(out, 0) // reserved
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// DecodeMigration parses an encoded migration batch. Validation is
// all-or-nothing: any structural damage rejects the whole blob.
func DecodeMigration(data []byte) ([]MigrationRecord, error) {
	if len(data) < 12 {
		return nil, ErrBadMigration
	}
	if binary.LittleEndian.Uint32(data) != migrationMagic {
		return nil, ErrBadMigration
	}
	if binary.LittleEndian.Uint16(data[4:]) != migrationVersion {
		return nil, ErrBadMigration
	}
	body := data[12:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[8:]) {
		return nil, ErrBadMigration
	}
	rd := &byteReader{b: body, ok: true}
	n := int(rd.u32())
	// The count is untrusted: size the slice by what the remaining
	// bytes can hold.
	recs := make([]MigrationRecord, 0, min(n, len(rd.b)/migrationRecordMinLen))
	for i := 0; i < n && rd.ok; i++ {
		var r MigrationRecord
		r.Flow.FID = flow.FID(rd.u32())
		for j := 0; j < 4; j++ {
			r.Flow.Tuple.SrcIP[j] = rd.u8()
		}
		for j := 0; j < 4; j++ {
			r.Flow.Tuple.DstIP[j] = rd.u8()
		}
		r.Flow.Tuple.SrcPort = rd.u16()
		r.Flow.Tuple.DstPort = rd.u16()
		r.Flow.Tuple.Proto = rd.u8()
		r.Flow.State = rd.u8()
		r.Flow.Packets = rd.u64()
		r.Flow.Bytes = rd.u64()
		r.Flow.LastSeen = rd.u64()
		if rd.u8() != 0 {
			im, rest, ok := decodeRuleImage(rd.b)
			if !ok {
				return nil, ErrBadMigration
			}
			rd.b = rest
			r.Rule = im
		}
		recs = append(recs, r)
	}
	if !rd.ok || len(rd.b) != 0 {
		return nil, ErrBadMigration
	}
	return recs, nil
}
