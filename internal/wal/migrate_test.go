package wal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/packet"
)

func sampleMigration() []MigrationRecord {
	return []MigrationRecord{
		{
			Flow: FlowEntry{FID: 4, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
				SrcPort: 6000, DstPort: 80, Proto: 6,
			}, State: 2, Packets: 12, Bytes: 900, LastSeen: 8999},
			Rule: sampleImage(4),
		},
		{
			// A demoted flow: entry only, no rule — the new owner
			// re-records it on its next packet.
			Flow: FlowEntry{FID: 9, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 1, 1}, DstIP: [4]byte{10, 0, 1, 2},
				SrcPort: 5353, DstPort: 53, Proto: 17,
			}, State: 1, Packets: 2, Bytes: 128, LastSeen: 8800},
		},
	}
}

func TestMigrationRoundTrip(t *testing.T) {
	want := sampleMigration()
	data := EncodeMigration(want)
	got, err := DecodeMigration(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(data, EncodeMigration(want)) {
		t.Error("migration encoding is not deterministic")
	}
	empty, err := DecodeMigration(EncodeMigration(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("empty batch decoded to %d records", len(empty))
	}
}

// TestMigrationCorruptionFailsLoudly: a migration record commits a
// flow onto a new owner, so a damaged blob must be rejected whole —
// every truncation, byte flip and trailing-garbage variant returns
// ErrBadMigration, never a partial transfer.
func TestMigrationCorruptionFailsLoudly(t *testing.T) {
	data := EncodeMigration(sampleMigration())
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeMigration(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range data {
		if i == 6 || i == 7 {
			continue // reserved header bytes, not validated
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := DecodeMigration(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	if _, err := DecodeMigration(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestMigrationHugeCountRejected: a migration blob whose record count
// no remaining bytes back must fail with ErrBadMigration without sizing
// a slice from the count.
func TestMigrationHugeCountRejected(t *testing.T) {
	data := frame(migrationMagic, migrationVersion, binary.LittleEndian.AppendUint32(nil, 0x7fffffff))
	var err error
	if n := allocatedBy(func() { _, err = DecodeMigration(data) }); n > 1<<20 {
		t.Errorf("decoding allocated %d bytes", n)
	}
	if err == nil {
		t.Fatal("migration with an unbacked record count accepted")
	}
}

// FuzzDecodeMigration fuzzes the migration body behind a freshly
// computed header, so mutations reach the decoder: it must never panic
// or exhaust memory, and an accepted batch must round-trip.
func FuzzDecodeMigration(f *testing.F) {
	data := EncodeMigration(sampleMigration())
	f.Add(data[12:])
	f.Add(data[12 : len(data)-2])
	f.Add([]byte{})
	mut := append([]byte(nil), data[12:]...)
	mut[2] ^= 0x20
	f.Add(mut)
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := DecodeMigration(frame(migrationMagic, migrationVersion, body))
		if err != nil {
			return
		}
		if got, rerr := DecodeMigration(EncodeMigration(recs)); rerr != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("accepted batch does not round-trip: %v", rerr)
		}
	})
}
