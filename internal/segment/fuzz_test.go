package segment

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/metrics"
	"slices"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// blockReader returns a positional reader whose dictionary has one term,
// "t", with document frequency df and blk, whatever it holds, as that
// term's posting block — checksum and all, so verification passes and
// the decoders meet the bytes. Open makes it, from an image with an
// empty document set.
func blockReader(t *testing.T, blk []byte, df int) *Reader {
	dict := []byte{0} // no documents
	dict = binary.AppendUvarint(dict, uint64(len(blk)))
	dict = binary.AppendUvarint(dict, 1) // one term
	dict = index.AppendString(dict, "t")
	dict = binary.AppendUvarint(dict, uint64(df))
	dict = binary.AppendUvarint(dict, uint64(len(blk)))
	dict = binary.LittleEndian.AppendUint32(dict, index.Checksum(blk))
	r, err := OpenBytes("fuzz", segmentImage(flagPositional, dict, blk), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// at returns dictionary entry ord, decoded forward from its restart.
func (r *Reader) at(ord int) entry {
	c := r.cursor(ord / restartEvery)
	for range ord % restartEvery {
		c.next()
	}
	return *c.next()
}

// find returns the ordinal of term in the dictionary, or -1.
func (r *Reader) find(term string) int {
	ord, _ := r.lookup(term)
	return ord
}

// term returns dictionary term ord, copied out of the dictionary.
func (r *Reader) term(ord int) string { return string(r.at(ord).term) }

// rawBlock returns a copy of term ord's posting block as r's file holds
// it, and the term's document frequency.
func rawBlock(f *testing.F, r *Reader, ord int) ([]byte, int) {
	e := r.at(ord)
	blk, err := r.src.slice(r.blocksOff+e.off, e.size)
	if err != nil {
		f.Fatal(err)
	}
	return bytes.Clone(blk), e.df
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
// through both decode tiers and the streaming iterator (Reader.Iterator,
// which streams the block when there is no cache). None may panic or
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
		blk, df := rawBlock(f, r, r.find(term))
		f.Add(blk, df)
	}
	f.Add([]byte{0, 1, 5, 0, 0}, 1)                   // one boolean posting, positions absent
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f}, 7) // a count far past the block
	f.Add([]byte{0xff, 0xff, 0xff, 0x07}, 1<<31)      // a skip count far past the block
	for _, w := range wordBlocks() {
		f.Add(w.blk, w.df)
	}

	f.Fuzz(func(t *testing.T, blk []byte, df int) {
		if df < 1 || df > maxCount {
			return // Open refuses such a dictionary entry
		}
		r := blockReader(t, blk, df)
		e0 := r.at(0)
		var counts, full *postings.List
		var cerr, ferr error
		run := func() {
			counts, cerr = r.decodeBlock(&e0, false)
			full, ferr = r.decodeBlock(&e0, true)
			if it := r.Iterator("t"); it != nil {
				for it.Next() {
					it.Count()
				}
				it.MaxCount()
			}
			if it := r.Iterator("t"); it != nil {
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

// wordBlocks returns the blocks at the boundaries of the position
// decode's word-at-a-time path, each with its df: a run of 16 one-byte
// deltas whose second word ends on the block's last byte; the same with a
// zero delta in lane 3 of its first word (the run's start) and of its
// second (inside the run); and a run of 8 one-byte deltas then a two-byte
// one cut before its second byte.
func wordBlocks() []struct {
	blk []byte
	df  int
} {
	run := make([]uint32, 16)
	for k := range run {
		run[k] = uint32(k)
	}
	w16 := windowBlock(postings.FromSortedIDPositions([]postings.FileID{3, 9}, [][]uint32{{5, 300}, run}))
	zeroAt := func(i int) []byte {
		blk := bytes.Clone(w16)
		blk[i] = 0
		return blk
	}
	cut := windowBlock(postings.FromSortedIDPositions([]postings.FileID{3},
		[][]uint32{{1, 2, 3, 4, 5, 6, 7, 8, 9, 300}}))
	return []struct {
		blk []byte
		df  int
	}{
		{w16, 2},
		{zeroAt(len(w16) - 13), 2},
		{zeroAt(len(w16) - 5), 2},
		{cut[:len(cut)-1], 1},
	}
}

// fuzzWindows reads up to eight windows from spec, six bytes each: a gap
// to the next file (files strictly ascend), a little-endian lo and a
// width, 255 meaning to the top of the position range.
func fuzzWindows(spec []byte) (files []postings.FileID, lo, hi []uint32) {
	next := uint64(0)
	for ; len(spec) >= 6 && len(files) < 8; spec = spec[6:] {
		f := next + uint64(spec[0])
		if f > math.MaxUint32 {
			break
		}
		a := binary.LittleEndian.Uint32(spec[1:5])
		b := uint32(math.MaxUint32)
		if w := uint32(spec[5]); w != 255 {
			b = a + min(w, math.MaxUint32-a)
		}
		files, lo, hi = append(files, postings.FileID(f)), append(lo, a), append(hi, b)
		next = f + 1
	}
	return files, lo, hi
}

// windowBlock frames a positional list as a block of at most 128
// postings: an empty skip table, then the list's encoding.
func windowBlock(l *postings.List) []byte {
	return l.EncodePositional([]byte{0})
}

// FuzzWindowDecode feeds arbitrary block bytes, a dictionary df and a few
// ascending files with their windows through Reader.Window, the snippet
// pass that reads blocks in place. It may not panic, and allocates nothing
// unless it reports a fault (then only that fault's error). Whenever the
// full decode accepts the block, the pass reports no fault and emits
// exactly what postings.List.Window over the decoded list emits, in the
// same order.
func FuzzWindowDecode(f *testing.F) {
	var img bytes.Buffer
	if err := Write(&img, buildIndex(f, 300, true)); err != nil {
		f.Fatal(err)
	}
	r, err := OpenBytes("seed", img.Bytes(), nil)
	if err != nil {
		f.Fatal(err)
	}
	skipped, df := rawBlock(f, r, r.find("common")) // 300 postings: a skip table
	window := func(file byte, lo uint32, width byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{file}, lo), width)
	}
	f.Add(skipped, df,
		slices.Concat(window(3, 0, 40), window(90, 10, 255), window(150, 0, 255)))
	boolean := postings.FromSortedIDPositions([]postings.FileID{1, 5, 9}, [][]uint32{{3}, {7}, {2}})
	f.Add(windowBlock(boolean), 3, slices.Concat(window(1, 0, 10), window(3, 5, 5), window(3, 0, 255)))
	// A counted block whose first asked-for run passes its window's end
	// with positions to spare, ahead of a second asked-for run.
	counted := postings.FromSortedIDPositions([]postings.FileID{1, 2, 4}, [][]uint32{{1, 5, 9}, {2, 4}, {3, 6, 8}})
	f.Add(windowBlock(counted), 3, slices.Concat(window(1, 0, 2), window(2, 0, 255)))
	top := postings.FromSortedIDPositions([]postings.FileID{2}, [][]uint32{{math.MaxUint32 - 3, math.MaxUint32}})
	f.Add(windowBlock(top), 1, window(2, math.MaxUint32-5, 255))

	for _, w := range wordBlocks() {
		f.Add(w.blk, w.df, slices.Concat(window(3, 0, 255), window(5, 4, 9)))
	}

	f.Fuzz(func(t *testing.T, blk []byte, df int, spec []byte) {
		if df < 1 || df > maxCount {
			return // Open refuses such a dictionary entry
		}
		files, lo, hi := fuzzWindows(spec)
		r := blockReader(t, blk, df)
		e0 := r.at(0)
		var got []uint64
		r.Window(files, lo, hi, func(i int, term string, pos uint32) {
			got = append(got, uint64(i)<<32|uint64(pos))
		})
		faulted := r.Corruptions() != 0
		for try := 1; ; try++ {
			allocs := testing.AllocsPerRun(1, func() { r.Window(files, lo, hi, func(int, string, uint32) {}) })
			if allocs == 0 || faulted && allocs <= 16 {
				break
			}
			// The count is the whole process's, and the fuzzing engine
			// allocates beside us now and then: an overrun that is ours
			// repeats.
			if try == 5 {
				t.Fatalf("Window allocated %.0f times (fault reported: %v)", allocs, faulted)
			}
		}

		l, err := r.decodeBlock(&e0, true)
		if err != nil {
			return
		}
		if faulted {
			t.Fatalf("Window reported a fault in a block the decode accepts: %v", r.Err())
		}
		var want []uint64
		l.Window(files, lo, hi, func(i int, pos uint32) {
			want = append(want, uint64(i)<<32|uint64(pos))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("Window emitted %v, the decoded list %v", got, want)
		}
	})
}

// segmentImage frames dict and blocks as a segment file whose header and
// dictionary checksum are right, whatever the dictionary holds.
func segmentImage(flags byte, dict, blocks []byte) []byte {
	img := index.AppendHeader(nil, index.KindSegment, flags)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(dict)))
	img = append(img, dict...)
	img = binary.LittleEndian.AppendUint32(img, index.Checksum(img))
	return append(img, blocks...)
}

// FuzzSegmentOpen feeds arbitrary dictionary bytes — what a segment whose
// dictionary checksum someone recomputed would hold — and block bytes
// through Open and, when it accepts them, Materialize. Neither may panic
// or allocate out of proportion to the file: every count Open sizes an
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
		// The dictionary's IDs cost a few words each and its entries 20 B of
		// columns beside their terms' bytes, and each takes at least a byte
		// of it (an entry seven); Materialize decodes the blocks, whose
		// budget is FuzzBlockDecode's. It also sizes the document set by the
		// largest file ID, which LoadDir holds to the manifest's file table
		// first (shard's admit) and this test to the file's size.
		allocLimit(t, uint64(64*len(file)+1<<16), func() {
			if r, err := OpenBytes("fuzz", file, nil); err == nil {
				if ids := r.docs.IDs(); len(ids) == 0 || int(ids[len(ids)-1]) < 8*len(file) {
					r.Materialize()
				}
				r.Close()
			}
		})
	})
}
