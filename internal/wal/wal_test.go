package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// sampleImage builds a rule image exercising every body field.
func sampleImage(fid flow.FID) *RuleImage {
	return &RuleImage{
		FID:  fid,
		Drop: false,
		Modifies: []mat.FieldValue{
			{Field: packet.FieldDstIP, Value: []byte{10, 0, 0, 9}},
			{Field: packet.FieldDstPort, Value: []byte{0x1f, 0x90}},
		},
		Decaps: []packet.HeaderType{packet.HeaderVLAN},
		Encaps: []packet.ExtraHeader{
			{Type: packet.HeaderAH, SPI: 7, Seq: 3},
			{Type: packet.HeaderVLAN, Tag: 100},
		},
		SourceNFs: 3,
		Sources: []mat.SourceSummary{
			{NF: "nat", Modifies: 2},
			{NF: "vpn", Encaps: 1, Decaps: 1},
			{NF: "fw", Dropped: true},
		},
		Version: 5,
		Epoch:   2,
	}
}

// sampleLog appends one record of every type and returns the fully
// synced log plus the records as the writer sequenced them.
func sampleLog() (*Writer, []Record) {
	w := NewWriter(Options{GroupCommit: 1})
	recs := []Record{
		{Type: RecRuleInstall, FID: 4, Epoch: 1, Aux: AuxRestorable, Rule: sampleImage(4)},
		{Type: RecEventRegister, FID: 4, Epoch: 1},
		{Type: RecRuleInstall, FID: 9, Epoch: 1, Aux: AuxReplaced},
		{Type: RecRuleStale, FID: 9, Epoch: 1},
		{Type: RecEpochAdvance, Epoch: 2},
		{Type: RecRuleRemove, FID: 4, Epoch: 2},
	}
	for i := range recs {
		recs[i].Seq = w.Append(recs[i])
	}
	return w, recs
}

// prefixEqual reports whether recs matches the leading records of want
// (element-wise, so a nil and an empty slice both count as the empty
// prefix).
func prefixEqual(recs, want []Record) bool {
	if len(recs) > len(want) {
		return false
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], want[i]) {
			return false
		}
	}
	return true
}

func TestRecordRoundTrip(t *testing.T) {
	w, want := sampleLog()
	got, consumed := Decode(w.Bytes())
	if consumed != w.Size() {
		t.Errorf("consumed %d of %d bytes", consumed, w.Size())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	im, ok := ImageOf(got[0].Rule.Rule())
	if !ok {
		t.Fatal("materialized rule not restorable")
	}
	if !reflect.DeepEqual(im, want[0].Rule) {
		t.Errorf("image -> rule -> image drifted:\n got %+v\nwant %+v", im, want[0].Rule)
	}
}

// TestTornTailEveryOffset truncates the log at every byte boundary: the
// decoded result must always be a clean whole-record prefix — a record
// cut anywhere inside its frame is discarded whole, never partially
// applied.
func TestTornTailEveryOffset(t *testing.T) {
	w, want := sampleLog()
	data := w.Bytes()
	full, _ := Decode(data)
	if len(full) != len(want) {
		t.Fatalf("full decode: %d records, want %d", len(full), len(want))
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, consumed := Decode(data[:cut])
		if consumed > cut {
			t.Fatalf("cut %d: consumed %d past the end", cut, consumed)
		}
		if !prefixEqual(recs, want) {
			t.Fatalf("cut %d: decoded %d records, not a prefix of the log", cut, len(recs))
		}
		// Re-decoding the consumed prefix must be stable.
		again, c2 := Decode(data[:consumed])
		if c2 != consumed || !reflect.DeepEqual(again, recs) {
			t.Fatalf("cut %d: re-decode of consumed prefix diverged", cut)
		}
	}
	// A cut exactly at a frame boundary keeps everything before it.
	if recs, _ := Decode(data[:len(data)-1]); len(recs) != len(want)-1 {
		t.Errorf("one byte torn off: %d records, want %d", len(recs), len(want)-1)
	}
}

// TestCorruptByteDiscardsSuffix flips every byte of the log in turn:
// the CRC must stop replay at (or before) the corrupted record, and the
// surviving records must still be a clean prefix.
func TestCorruptByteDiscardsSuffix(t *testing.T) {
	w, want := sampleLog()
	data := w.Bytes()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		recs, consumed := Decode(mut)
		if consumed > len(mut) {
			t.Fatalf("flip %d: consumed past the end", i)
		}
		if len(recs) >= len(want) {
			t.Fatalf("flip %d: corruption went unnoticed (%d records)", i, len(recs))
		}
		if !prefixEqual(recs, want) {
			t.Fatalf("flip %d: surviving records are not a prefix", i)
		}
	}
}

func TestSeqRegressionStops(t *testing.T) {
	var data []byte
	data = appendRecord(data, &Record{Seq: 1, Type: RecRuleRemove, FID: 1})
	data = appendRecord(data, &Record{Seq: 5, Type: RecRuleRemove, FID: 2})
	boundary := len(data)
	data = appendRecord(data, &Record{Seq: 3, Type: RecRuleRemove, FID: 3})

	recs, consumed := Decode(data)
	if len(recs) != 2 || consumed != boundary {
		t.Errorf("regression: %d records, consumed %d (want 2, %d)", len(recs), consumed, boundary)
	}

	// An equal sequence number is a regression too.
	dup := data[:boundary]
	dup = appendRecord(dup, &Record{Seq: 5, Type: RecRuleRemove, FID: 3})
	if recs, _ := Decode(dup); len(recs) != 2 {
		t.Errorf("duplicate seq accepted: %d records", len(recs))
	}
}

func TestGroupCommitDurability(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(Options{GroupCommit: 4, Sink: &sink})
	for i := 0; i < 3; i++ {
		w.Append(Record{Type: RecRuleRemove, FID: flow.FID(i + 1)})
	}
	if n := len(w.DurableBytes()); n != 0 {
		t.Errorf("3 of 4 records appended: %d durable bytes, want 0", n)
	}
	if w.Syncs() != 0 || sink.Len() != 0 {
		t.Error("sync fired before the group-commit batch filled")
	}

	w.Append(Record{Type: RecRuleRemove, FID: 4}) // fills the batch
	if !bytes.Equal(w.DurableBytes(), w.Bytes()) {
		t.Error("after group commit the whole log should be durable")
	}
	if w.Syncs() != 1 || !bytes.Equal(sink.Bytes(), w.Bytes()) {
		t.Errorf("sink holds %d bytes after first sync, want %d", sink.Len(), w.Size())
	}

	w.Append(Record{Type: RecRuleRemove, FID: 5}) // pending again
	if bytes.Equal(w.DurableBytes(), w.Bytes()) {
		t.Error("unsynced tail leaked into DurableBytes")
	}
	w.Sync()
	if !bytes.Equal(w.DurableBytes(), w.Bytes()) || !bytes.Equal(sink.Bytes(), w.Bytes()) {
		t.Error("explicit Sync did not flush the tail")
	}
	syncs := w.Syncs()
	w.Sync() // no-op: nothing pending
	if w.Syncs() != syncs {
		t.Error("empty Sync still counted")
	}

	recs, _ := Decode(w.DurableBytes())
	if len(recs) != 5 || recs[4].Seq != w.Seq() {
		t.Errorf("durable log decodes to %d records (last seq %d), want 5 ending at %d",
			len(recs), recs[len(recs)-1].Seq, w.Seq())
	}
}

func TestNilWriterSafe(t *testing.T) {
	var w *Writer
	if seq := w.Append(Record{Type: RecRuleRemove}); seq != 0 {
		t.Error("nil writer assigned a sequence")
	}
	w.Sync()
	w.SetOnSync(nil)
	if w.DurableBytes() != nil || w.Bytes() != nil || w.Seq() != 0 || w.Syncs() != 0 || w.Size() != 0 {
		t.Error("nil writer reported state")
	}
}

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Epoch:  3,
		WALSeq: 41,
		Clock:  9000,
		Flows: []FlowEntry{
			{FID: 4, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
				SrcPort: 6000, DstPort: 80, Proto: 6,
			}, State: 2, Packets: 12, Bytes: 900, LastSeen: 8999},
			{FID: 9, Tuple: packet.FiveTuple{
				SrcIP: [4]byte{10, 0, 1, 1}, DstIP: [4]byte{10, 0, 1, 2},
				SrcPort: 5353, DstPort: 53, Proto: 17,
			}, State: 2, Packets: 2, Bytes: 128, LastSeen: 8800},
		},
		Rules:   []RuleImage{*sampleImage(4), *sampleImage(9)},
		NFState: map[string][]byte{"monitor": {1, 2, 3}, "maglev": nil, "dos": {0xff}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	data := want.Encode()
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Deterministic encoding (map iteration must not leak in).
	if !bytes.Equal(data, want.Encode()) {
		t.Error("checkpoint encoding is not deterministic")
	}
}

// TestCheckpointCorruptionFailsLoudly: unlike a torn WAL tail, a
// damaged checkpoint has no usable prefix — every truncation, byte flip
// and trailing-garbage variant must return ErrBadCheckpoint, never a
// partial snapshot.
func TestCheckpointCorruptionFailsLoudly(t *testing.T) {
	data := sampleCheckpoint().Encode()
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range data {
		if i == 6 || i == 7 {
			continue // reserved header bytes, not validated
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := DecodeCheckpoint(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// frame wraps a blob body in a valid header (magic, version, reserved,
// CRC over the body), so fuzzed or hand-built bodies reach the decoder
// instead of failing the checksum.
func frame(magic uint32, version uint16, body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, magic)
	out = appendUint16(out, version)
	out = appendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// allocatedBy reports the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointHugeCountRejected is the regression test for an
// untrusted size hint: a 48-byte checkpoint with a valid header and CRC,
// no flows, no rules and an NF-state count of 0x7fffffff once sized a
// map straight from that count and died with a runtime out-of-memory
// fatal. It must fail with ErrBadCheckpoint, allocating next to nothing.
func TestCheckpointHugeCountRejected(t *testing.T) {
	body := make([]byte, 3*8) // epoch, WAL seq, clock
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 0x7fffffff)
	data := frame(checkpointMagic, checkpointVersion, body)
	if len(data) != 48 {
		t.Fatalf("repro is %d bytes, want 48", len(data))
	}
	var err error
	if n := allocatedBy(func() { _, err = DecodeCheckpoint(data) }); n > 1<<20 {
		t.Errorf("decoding allocated %d bytes", n)
	}
	if err == nil {
		t.Fatal("checkpoint with an unbacked NF-state count accepted")
	}
}

// FuzzDecodeCheckpoint fuzzes the checkpoint body behind a freshly
// computed header, so mutations reach the decoder: it must never panic
// or exhaust memory, and an accepted checkpoint must round-trip.
func FuzzDecodeCheckpoint(f *testing.F) {
	data := sampleCheckpoint().Encode()
	f.Add(data[12:])
	f.Add(data[12 : len(data)-2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := DecodeCheckpoint(frame(checkpointMagic, checkpointVersion, body))
		if err != nil {
			return
		}
		if got, rerr := DecodeCheckpoint(c.Encode()); rerr != nil || !reflect.DeepEqual(got, c) {
			t.Fatalf("accepted checkpoint does not round-trip: %v", rerr)
		}
	})
}

// FuzzReplayTornTail feeds arbitrary bytes to the log decoder: whatever
// the input, Decode must return a stable, strictly sequenced record
// prefix without panicking — the property Restore relies on to keep a
// corrupt journal from ever touching the Global MAT.
func FuzzReplayTornTail(f *testing.F) {
	w, _ := sampleLog()
	data := w.Bytes()
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})
	mut := append([]byte(nil), data...)
	mut[9] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, consumed := Decode(in)
		if consumed < 0 || consumed > len(in) {
			t.Fatalf("consumed %d of %d", consumed, len(in))
		}
		var last uint64
		for _, r := range recs {
			if r.Seq <= last {
				t.Fatalf("sequence regression survived: %d after %d", r.Seq, last)
			}
			last = r.Seq
			if r.Type < RecRuleInstall || r.Type > RecEventRegister {
				t.Fatalf("invalid record type %d decoded", r.Type)
			}
		}
		again, c2 := Decode(in[:consumed])
		if c2 != consumed || !reflect.DeepEqual(again, recs) {
			t.Fatal("re-decode of consumed prefix diverged")
		}
	})
}
