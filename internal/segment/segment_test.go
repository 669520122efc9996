package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// buildIndex makes a deterministic index: nFiles files over a vocabulary
// sized so several terms are dense (present in most files, exercising skip
// tables) and several are rare.
func buildIndex(t testing.TB, nFiles int, positional bool) *index.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ix := index.New(64)
	for f := 0; f < nFiles; f++ {
		id := postings.FileID(f)
		var terms []string
		terms = append(terms, "common") // in every file
		if f%2 == 0 {
			terms = append(terms, "even")
		}
		if f%97 == 0 {
			terms = append(terms, "rare")
		}
		terms = append(terms, fmt.Sprintf("w%03d", rng.Intn(50)))
		if positional {
			pos := make([][]uint32, len(terms))
			p := uint32(0)
			for i := range terms {
				n := 1 + rng.Intn(3)
				run := make([]uint32, 0, n)
				for k := 0; k < n; k++ {
					p += uint32(1 + rng.Intn(5))
					run = append(run, p)
				}
				pos[i] = run
			}
			ix.AddBlockPositional(id, terms, pos)
		} else {
			counts := make([]uint32, len(terms))
			for i := range counts {
				counts[i] = uint32(1 + rng.Intn(4))
			}
			ix.AddBlock(id, terms, counts)
		}
	}
	return ix
}

func writeSegment(t *testing.T, ix *index.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.dsix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, ix); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func listsEqual(a, b *postings.List) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Len() != b.Len() || a.HasPositions() != b.HasPositions() {
		return false
	}
	for i, id := range a.IDs() {
		if b.IDs()[i] != id || a.CountAt(i) != b.CountAt(i) {
			return false
		}
		if a.HasPositions() {
			ap, bp := a.PositionsAt(i), b.PositionsAt(i)
			if len(ap) != len(bp) {
				return false
			}
			for k := range ap {
				if ap[k] != bp[k] {
					return false
				}
			}
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, positional := range []bool{false, true} {
		t.Run(fmt.Sprintf("positional=%v", positional), func(t *testing.T) {
			ix := buildIndex(t, 500, positional)
			r, err := Open(writeSegment(t, ix), NewCache(0))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			if r.Positional() != positional {
				t.Errorf("Positional() = %v, want %v", r.Positional(), positional)
			}
			if r.NumTerms() != ix.NumTerms() {
				t.Errorf("NumTerms() = %d, want %d", r.NumTerms(), ix.NumTerms())
			}
			if r.NumPostings() != ix.NumPostings() {
				t.Errorf("NumPostings() = %d, want %d", r.NumPostings(), ix.NumPostings())
			}
			for _, term := range append(ix.Terms(nil), "absent") {
				if !listsEqual(r.Lookup(term), ix.Lookup(term)) {
					t.Errorf("Lookup(%q) differs from heap index", term)
				}
				if r.DocFreq(term) != ix.DocFreq(term) {
					t.Errorf("DocFreq(%q) = %d, want %d", term, r.DocFreq(term), ix.DocFreq(term))
				}
			}
			if err := r.Err(); err != nil {
				t.Errorf("Err() = %v after clean lookups", err)
			}

			// Docs must round-trip as the same set.
			want := ix.Docs().IDs()
			got := r.Docs().IDs()
			if len(got) != len(want) {
				t.Fatalf("Docs() has %d ids, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Docs()[%d] = %d, want %d", i, got[i], want[i])
				}
			}

			// Sorted dictionary iteration matches the heap index's.
			var rTerms, ixTerms []string
			r.TermsFrom("", func(term string, df int) bool { rTerms = append(rTerms, term); return true })
			ix.TermsFrom("", func(term string, df int) bool { ixTerms = append(ixTerms, term); return true })
			if len(rTerms) != len(ixTerms) {
				t.Fatalf("TermsFrom yields %d terms, want %d", len(rTerms), len(ixTerms))
			}
			for i := range rTerms {
				if rTerms[i] != ixTerms[i] {
					t.Fatalf("TermsFrom[%d] = %q, want %q", i, rTerms[i], ixTerms[i])
				}
			}

			if err := r.Verify(); err != nil {
				t.Errorf("Verify() = %v", err)
			}
		})
	}
}

func TestOpenDecodesNoBlocks(t *testing.T) {
	ix := buildIndex(t, 300, true)
	r, err := Open(writeSegment(t, ix), NewCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.BlockDecodes(); n != 0 {
		t.Fatalf("Open decoded %d blocks, want 0", n)
	}
	// Dictionary-only operations stay at zero.
	r.DocFreq("common")
	r.TermsFrom("", func(string, int) bool { return true })
	r.Docs()
	if n := r.BlockDecodes(); n != 0 {
		t.Fatalf("dictionary operations decoded %d blocks, want 0", n)
	}
	// One lookup decodes exactly one block; a repeat hits the cache.
	r.Lookup("common")
	if n := r.BlockDecodes(); n != 1 {
		t.Fatalf("first Lookup decoded %d blocks, want 1", n)
	}
	r.Lookup("common")
	if n := r.BlockDecodes(); n != 1 {
		t.Fatalf("cached Lookup re-decoded: %d total decodes, want 1", n)
	}
	r.Lookup("absent")
	if n := r.BlockDecodes(); n != 1 {
		t.Fatalf("absent Lookup decoded a block: %d total, want 1", n)
	}
}

func TestMaterializeEqualsSource(t *testing.T) {
	for _, positional := range []bool{false, true} {
		ix := buildIndex(t, 200, positional)
		r, err := Open(writeSegment(t, ix), nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Materialize()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.NumTerms() != ix.NumTerms() || m.NumPostings() != ix.NumPostings() || m.Positional() != positional {
			t.Fatalf("materialized shape (%d terms, %d postings, pos=%v) != source (%d, %d, %v)",
				m.NumTerms(), m.NumPostings(), m.Positional(), ix.NumTerms(), ix.NumPostings(), positional)
		}
		for _, term := range ix.Terms(nil) {
			if !listsEqual(m.Lookup(term), ix.Lookup(term)) {
				t.Fatalf("materialized Lookup(%q) differs from source", term)
			}
		}
	}
}

// TestCorruptionEveryByte flips each byte of the segment in turn and
// requires that either Open or Verify rejects the file — no single-byte
// corruption can go unnoticed once the postings are actually read.
func TestCorruptionEveryByte(t *testing.T) {
	ix := buildIndex(t, 60, true)
	path := writeSegment(t, ix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		mut := bytes.Clone(orig)
		mut[i] ^= 0x01
		r, err := OpenBytes("mut", mut, nil)
		if err != nil {
			continue // rejected at open: good
		}
		err = r.Verify()
		r.Close()
		if err == nil {
			t.Fatalf("flipping byte %d of %d went undetected by Open and Verify", i, len(orig))
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	ix := buildIndex(t, 60, false)
	path := writeSegment(t, ix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, headerLen - 1, headerLen + 3, len(orig) / 2, len(orig) - 1} {
		if n >= len(orig) {
			continue
		}
		r, err := OpenBytes("trunc", orig[:n], nil)
		if err != nil {
			continue
		}
		err = r.Verify()
		r.Close()
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(orig))
		}
	}
}

func TestIterSeekGE(t *testing.T) {
	// A dense term (every file) gets a real skip table at 1000 postings.
	ix := index.New(4)
	var want []postings.FileID
	for f := 0; f < 3000; f += 3 {
		ix.AddTermOccurrence("dense", postings.FileID(f))
		want = append(want, postings.FileID(f))
	}
	r, err := Open(writeSegment(t, ix), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Full scan via Next matches the ID sequence.
	it, err := r.Iter("dense")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range want {
		if !it.Next() {
			t.Fatalf("Next() exhausted at %d of %d: %v", i, len(want), it.Err())
		}
		if it.ID() != id {
			t.Fatalf("Next()[%d] = %d, want %d", i, it.ID(), id)
		}
	}
	if it.Next() {
		t.Fatal("Next() past the end")
	}

	// SeekGE from a fresh iterator for a spread of targets, including
	// skip-boundary neighbourhoods and past-the-end.
	targets := []uint32{0, 1, 2, 3, 383, 384, 385, 1151, 1152, 1153, 2997, 2998, 5000}
	for _, tgt := range targets {
		it, err := r.Iter("dense")
		if err != nil {
			t.Fatal(err)
		}
		got := it.SeekGE(postings.FileID(tgt))
		// Expected: first multiple of 3 >= tgt, if < 3000.
		exp := (tgt + 2) / 3 * 3
		if exp >= 3000 {
			if got {
				t.Fatalf("SeekGE(%d) = true at %d, want exhausted", tgt, it.ID())
			}
			continue
		}
		if !got || it.ID() != postings.FileID(exp) {
			t.Fatalf("SeekGE(%d) = %v at %d, want %d", tgt, got, it.ID(), exp)
		}
	}

	// Monotone seeks on one iterator never go backwards.
	it, err = r.Iter("dense")
	if err != nil {
		t.Fatal(err)
	}
	prev := postings.FileID(0)
	for _, tgt := range []uint32{5, 5, 300, 301, 1500, 1500, 2997} {
		if !it.SeekGE(postings.FileID(tgt)) {
			t.Fatalf("SeekGE(%d) exhausted", tgt)
		}
		if it.ID() < prev || it.ID() < postings.FileID(tgt) {
			t.Fatalf("SeekGE(%d) = %d, went backwards from %d", tgt, it.ID(), prev)
		}
		prev = it.ID()
	}

	// Iter on an absent term is a nil iterator, no error.
	if abs, err := r.Iter("absent"); err != nil || abs != nil {
		t.Fatalf("Iter(absent) = %v, %v; want nil, nil", abs, err)
	}
	// Streaming decodes no blocks.
	if n := r.BlockDecodes(); n != 0 {
		t.Fatalf("iteration decoded %d blocks, want 0", n)
	}
}

func TestCacheEviction(t *testing.T) {
	ix := buildIndex(t, 400, false)
	cache := NewCache(2048) // tiny: forces eviction
	r, err := Open(writeSegment(t, ix), cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, term := range ix.Terms(nil) {
		if r.Lookup(term) == nil {
			t.Fatalf("Lookup(%q) = nil", term)
		}
	}
	if cache.Bytes() > 2048 {
		t.Fatalf("cache holds %d bytes, budget 2048", cache.Bytes())
	}
	// Evicted entries re-decode correctly.
	for _, term := range ix.Terms(nil) {
		if !listsEqual(r.Lookup(term), ix.Lookup(term)) {
			t.Fatalf("post-eviction Lookup(%q) differs", term)
		}
	}
	before := cache.Bytes()
	if before == 0 {
		t.Fatal("nothing cached despite lookups")
	}
	r.Close()
	if cache.Bytes() != 0 {
		t.Fatalf("cache holds %d bytes after owner closed, want 0", cache.Bytes())
	}
	_ = before
}
