package segment

import (
	"bytes"
	"runtime/metrics"
	"testing"

	"desksearch/internal/fnv"
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
		entries:    []entry{{term: "t", df: df, blen: int64(len(blk)), sum: fnv.Hash64Bytes(blk)}},
	}
}

// allocatedBytes reads the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
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
		// structs and the span granularity the runtime counts bytes at. The
		// count is the whole process's, and the fuzzing engine allocates
		// beside us now and then: an overrun that is ours repeats.
		limit := uint64(64*len(blk) + 1<<16)
		for try := 1; ; try++ {
			before := allocatedBytes()
			run()
			grown := allocatedBytes() - before
			if grown <= limit {
				break
			}
			if try == 5 {
				t.Fatalf("decoding a %d-byte block (df %d) allocated %d bytes, limit %d", len(blk), df, grown, limit)
			}
		}
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
