package segment

import (
	"bytes"
	"encoding/binary"
	"runtime/metrics"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// blockReader returns a positional reader whose dictionary has one term
// with document frequency df and blk, whatever it holds, as that term's
// posting block — checksum and all, so verification passes and the
// decoders meet the bytes.
func blockReader(blk []byte, df int) *Reader {
	return &Reader{
		path:       "fuzz",
		src:        newByteSource(blk),
		positional: true,
		entries:    []entry{{term: "t", df: df, blen: int64(len(blk)), sum: index.Checksum(blk)}},
	}
}

// allocatedBytes reads the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocLimit fails t when run, repeated up to five times, never stays
// within limit bytes of heap allocation. The count is the whole process's,
// and the fuzzing engine allocates beside us now and then: an overrun that
// is ours repeats.
func allocLimit(t *testing.T, limit uint64, run func()) {
	t.Helper()
	for try := 1; ; try++ {
		before := allocatedBytes()
		run()
		grown := allocatedBytes() - before
		if grown <= limit {
			return
		}
		if try == 5 {
			t.Fatalf("allocated %d bytes, limit %d", grown, limit)
		}
	}
}

// FuzzBlockDecode feeds arbitrary block bytes and an arbitrary dictionary
// df — what a segment whose checksums someone recomputed would hold —
// through both decode tiers and the streaming iterator. None may panic or
// allocate out of proportion to the block, and whenever both tiers accept
// a block they agree on every ID and frequency. (The iterator is only
// driven, not compared: it trusts the skip table for where postings start,
// which a decode never reads, so a block whose table lies decodes fine and
// streams differently; only the writer's blocks carry a true one.)
func FuzzBlockDecode(f *testing.F) {
	ix := buildIndex(f, 300, true)
	var img bytes.Buffer
	if err := Write(&img, ix); err != nil {
		f.Fatal(err)
	}
	r, err := OpenBytes("seed", img.Bytes(), nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, term := range []string{"common", "even", "rare", "w007"} {
		e := r.entries[r.find(term)]
		blk, err := r.block(&e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), blk...), e.df)
	}
	f.Add([]byte{0, 1, 5, 0, 0}, 1)                   // one boolean posting, positions absent
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f}, 7) // a count far past the block
	f.Add([]byte{0xff, 0xff, 0xff, 0x07}, 1<<31)      // a skip count far past the block

	f.Fuzz(func(t *testing.T, blk []byte, df int) {
		if df < 1 || df > maxCount {
			return // Open refuses such a dictionary entry
		}
		r := blockReader(blk, df)
		var counts, full *postings.List
		var cerr, ferr error
		run := func() {
			counts, cerr = r.decodeBlock(0, false)
			full, ferr = r.decodeBlock(0, true)
			if it, err := r.iterAt(0); err == nil {
				for it.Next() {
					it.Count()
				}
				it.MaxCount()
			}
			if it, err := r.iterAt(0); err == nil {
				for id := postings.FileID(0); it.SeekGE(id); id = it.ID() + 97 {
					it.Count()
				}
			}
		}
		// A posting takes at least a byte and decodes to an ID, a slice
		// header and a position. The constant covers error text, the fixed
		// structs and the span granularity the runtime counts bytes at.
		allocLimit(t, uint64(64*len(blk)+1<<16), run)
		if ferr == nil && cerr != nil {
			t.Fatalf("the full decode accepts a block the counts tier refuses: %v", cerr)
		}
		if cerr != nil || ferr != nil {
			return
		}
		if !countsEqual(counts, full) {
			t.Fatal("counts tier and full decode disagree on IDs or frequencies")
		}
	})
}

// segmentImage frames dict and blocks as a segment file whose header and
// dictionary checksum are right, whatever the dictionary holds.
func segmentImage(flags byte, dict, blocks []byte) []byte {
	img := append([]byte(segMagic), 0, 0, index.KindSegment, flags)
	binary.LittleEndian.PutUint16(img[4:], index.Version)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(dict)))
	img = append(img, dict...)
	img = binary.LittleEndian.AppendUint32(img, index.Checksum(img))
	return append(img, blocks...)
}

// FuzzSegmentOpen feeds arbitrary dictionary bytes — what a segment whose
// dictionary checksum someone recomputed would hold — and block bytes
// through Open and, when it accepts them, Verify. Neither may panic or
// allocate out of proportion to the file: every count Open sizes an
// allocation by is one the dictionary's own bytes must back.
func FuzzSegmentOpen(f *testing.F) {
	var img bytes.Buffer
	if err := Write(&img, buildIndex(f, 60, true)); err != nil {
		f.Fatal(err)
	}
	dictLen := binary.LittleEndian.Uint64(img.Bytes()[8:headerLen])
	f.Add(byte(flagPositional), img.Bytes()[headerLen:headerLen+dictLen], img.Bytes()[headerLen+dictLen+4:])
	maxVarint := []byte{0xff, 0xff, 0xff, 0xff, 0x07}               // 2³¹−1
	f.Add(byte(0), maxVarint, []byte(nil))                          // the doc count
	f.Add(byte(0), append([]byte{0, 0}, maxVarint...), []byte(nil)) // the term count

	f.Fuzz(func(t *testing.T, flags byte, dict, blocks []byte) {
		file := segmentImage(flags, dict, blocks)
		// The dictionary's IDs and entries cost a few words each, and each
		// takes at least a byte of it; Verify decodes the blocks, whose
		// budget is FuzzBlockDecode's.
		allocLimit(t, uint64(64*len(file)+1<<16), func() {
			if r, err := OpenBytes("fuzz", file, nil); err == nil {
				r.Verify()
				r.Close()
			}
		})
	})
}
