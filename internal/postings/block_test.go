package postings

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestParseBlockRejects hands Block.Parse blocks whose skip table or count
// disagrees with the dictionary's df or with the encoding after it. Each
// is refused before any reader trusts it: an iterator jumps to what the
// table says, so a table entry past FileID's range or outside the ID
// section would send it astray.
func TestParseBlockRejects(t *testing.T) {
	ids := make([]FileID, 129)
	for i := range ids {
		ids[i] = FileID(3 * i)
	}
	enc := FromSortedIDs(ids).Encode(nil)
	// block frames enc behind a hand-written table of (idDelta, offDelta).
	block := func(enc []byte, entries ...uint64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(entries)/2))
		for _, v := range entries {
			b = binary.AppendUvarint(b, v)
		}
		return append(b, enc...)
	}
	// Entry 1 is posting 128: ID 384, its varint ending at byte 131 (a
	// two-byte count, then 129 one-byte deltas).
	var b Block
	if err := b.Parse(block(enc, 384, 131), 129, false); err != nil {
		t.Fatalf("the true table is refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		blk  []byte
		df   int
		want string
	}{
		{"no entry for 129 postings", block(enc), 129, "0 skip entries, want 1"},
		{"more entries than bytes", append([]byte{0x80, 0x01}, 1, 1), 16385, "exceed"},
		{"truncated table", []byte{1, 0x80, 0x80}, 129, "corrupt skip table"},
		{"ID past FileID", block(enc, 1<<32, 131), 129, "out of range"},
		{"offset inside the count", block(enc, 384, 2), 129, "out of range"},
		{"offset past the encoding", block(enc, 384, uint64(len(enc)+1)), 129, "out of range"},
		{"count disagrees with df", block(FromSortedIDs(ids[:3]).Encode(nil)), 4, "3 postings, dictionary says 4"},
	} {
		if err := b.Parse(tc.blk, tc.df, false); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// sinkCount keeps the benchmarks' sums live.
var sinkCount uint32

// BenchmarkBlockIterator streams a counted block of 5 000 postings, their
// ID gaps one and two bytes wide, through Next and Count, and seeks it
// in strides of 7 IDs, reporting the time per posting of the block beside
// the allocations.
func BenchmarkBlockIterator(b *testing.B) {
	ids := make([]FileID, 5000)
	counts := make([]uint32, len(ids))
	id := FileID(0)
	for i := range ids {
		id += 1 + FileID(i%3*97) // gaps of 1, 98 and 195
		ids[i], counts[i] = id, 1+uint32(i%4)
	}
	var blk Block
	if err := blk.Parse(AppendBlock(nil, FromSortedIDCounts(ids, counts), false), len(ids), false); err != nil {
		b.Fatal(err)
	}
	b.Run("next", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for it := blk.Iterator(nil); it.Next(); {
				sinkCount += it.Count()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/posting")
	})
	b.Run("seek", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			it := blk.Iterator(nil)
			for t := FileID(0); it.SeekGE(t); t = it.ID() + 7 {
				sinkCount += it.Count()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/posting")
	})
}
