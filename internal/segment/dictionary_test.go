package segment

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// vocabDF is the document frequency vocabIndex gives its i-th term.
func vocabDF(i int) int { return 1 + i%4 }

// vocabIndex builds a counted index over vocab, which must ascend
// strictly: term i is in vocabDF(i) of 16 files, so block lengths vary.
func vocabIndex(vocab []string) *index.Index {
	var blocks [16][]string
	for i, term := range vocab {
		for k := range vocabDF(i) {
			f := (i + 3*k) % len(blocks)
			blocks[f] = append(blocks[f], term)
		}
	}
	b := index.NewBuilder(false)
	for f, terms := range blocks {
		b.AddBlock(postings.FileID(f), terms, nil)
	}
	return b.Index()
}

// randomVocab returns n distinct ascending terms of 3 to 12 letters.
func randomVocab(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	for len(seen) < n {
		w := make([]byte, 3+rng.Intn(10))
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		seen[string(w)] = true
	}
	vocab := make([]string, 0, n)
	for w := range seen {
		vocab = append(vocab, w)
	}
	slices.Sort(vocab)
	return vocab
}

// segmentOf returns the segment image Write makes of vocabIndex(vocab).
func segmentOf(t testing.TB, vocab []string) []byte {
	t.Helper()
	var img bytes.Buffer
	if err := Write(&img, vocabIndex(vocab)); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestReaderResidentBytesMatchesHeap holds an opened reader's
// ResidentBytes, with no cache, to within 20% of the heap opening it
// retains, measured after a collection: the dictionary's columns, the
// document set and the reader itself. Sixteen readers of one image are
// held open across the measurement, so what the rest of the process
// retains meanwhile (a few KB) is small beside what is measured.
func TestReaderResidentBytesMatchesHeap(t *testing.T) {
	const readers = 16
	img := segmentOf(t, randomVocab(10000, 1))
	rs := make([]*Reader, readers)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range rs {
		r, err := OpenBytes("resident", img, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	est := readers * rs[0].ResidentBytes()
	runtime.KeepAlive(rs)
	if ratio := float64(est) / float64(retained); ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("%d readers: ResidentBytes %d, retained heap %d (ratio %.2f)", readers, est, retained, ratio)
	}
	t.Logf("%d readers of %d terms: ResidentBytes %d, retained heap %d", readers, rs[0].NumTerms(), est, retained)
}

// TestDictionaryAllocations pins what the dictionary costs in
// allocations: opening a segment makes as many for 10 000 terms as for
// 100 (each restart column is one), DocFreq makes none, and a full
// TermsFrom walk one for its cursor and exactly one per term it yields,
// the heap copy of the term.
func TestDictionaryAllocations(t *testing.T) {
	var opens []float64
	var r *Reader
	for _, n := range []int{100, 10000} {
		img := segmentOf(t, randomVocab(n, 2))
		opens = append(opens, testing.AllocsPerRun(20, func() {
			var err error
			if r, err = OpenBytes("allocs", img, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if opens[0] != opens[1] {
		t.Fatalf("OpenBytes made %.0f allocations for 100 terms, %.0f for 10 000", opens[0], opens[1])
	}
	term := r.term(r.NumTerms() / 2)
	if a := testing.AllocsPerRun(100, func() { r.DocFreq(term) }); a != 0 {
		t.Fatalf("DocFreq made %.1f allocations", a)
	}
	walked := 0
	if a := testing.AllocsPerRun(10, func() {
		w := r.TermsFrom("")
		for _, _, ok := w.Next(); ok; _, _, ok = w.Next() {
			walked++
		}
	}); a != float64(1+r.NumTerms()) {
		t.Fatalf("a full TermsFrom walk made %.1f allocations, want the cursor and one a term, %d", a, 1+r.NumTerms())
	}
	if walked != 11*r.NumTerms() {
		t.Fatalf("walked %d terms in 11 walks of %d", walked, r.NumTerms())
	}
}

// TestClosedReaderReadsNothing pins what Close leaves of a segment opened
// from a file (mapped, on linux): the terms TermsFrom yielded before it
// are heap copies and stay intact once the mapping is gone, and every
// read after it reports its term absent, or fails, without touching the
// mapping — a touch would fault the process — and records the closed
// read, one fault a read, for Err and Corruptions.
func TestClosedReaderReadsNothing(t *testing.T) {
	ix := buildIndex(t, 300, true)
	r, err := Open(writeSegment(t, ix), NewCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && r.src.data == nil {
		t.Fatal("segment not mapped on linux")
	}
	type termDF struct {
		term string
		df   int
	}
	walk := func(p index.Partition, from string) []termDF {
		var out []termDF
		w := p.TermsFrom(from)
		for term, df, ok := w.Next(); ok; term, df, ok = w.Next() {
			out = append(out, termDF{term, df})
		}
		return out
	}
	files := []postings.FileID{0, 1, 2}
	lo, hi := []uint32{0, 0, 0}, []uint32{100, 100, 100}
	window := func() (n int) {
		r.Window(files, lo, hi, func(int, string, uint32) { n++ })
		return n
	}
	want := walk(ix, "")
	yielded := walk(r, "")
	early := r.TermsFrom("")
	const term = "common"
	if r.Lookup(term) == nil || window() == 0 {
		t.Fatalf("before Close: Lookup(%q) or the window pass found nothing", term)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(yielded, want) {
		t.Fatalf("terms yielded before Close read %v after it, want %v", yielded, want)
	}
	if r.Corruptions() != 0 {
		t.Fatalf("%d faults before any read after Close", r.Corruptions())
	}
	reads := []struct {
		name     string
		answered func() bool
	}{
		{"DocFreq", func() bool { return r.DocFreq(term) != 0 }},
		{"TermsFrom", func() bool { return len(walk(r, "")) != 0 }},
		{"Iterator", func() bool { return r.Iterator(term) != nil }},
		{"Lookup", func() bool { return r.Lookup(term) != nil }},
		{"Counts", func() bool { return r.Counts(term) != nil }},
		{"Window", func() bool { return window() != 0 }},
		{"Materialize", func() bool {
			m, err := r.Materialize()
			return m != nil || !errors.Is(err, errClosed)
		}},
		{"a TermsFrom cursor opened before Close", func() bool {
			_, _, ok := early.Next()
			return ok
		}},
	}
	for i, rd := range reads {
		if rd.answered() {
			t.Fatalf("%s after Close answered from the closed segment", rd.name)
		}
		if got := r.Corruptions(); got != uint64(i+1) {
			t.Fatalf("after %s, %d faults recorded, want %d", rd.name, got, i+1)
		}
	}
	if err := r.Err(); !errors.Is(err, errClosed) || !strings.Contains(err.Error(), "read of closed segment") {
		t.Fatalf("Err() = %v, want the read of a closed segment", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("a second Close: %v", err)
	}
}

// FuzzSegmentDictionary writes a vocabulary drawn from the fuzzer's bytes
// (split at 0xff, any other byte allowed in a term) with Write, opens it
// and holds the dictionary to a sorted-slice model: find, DocFreq and a
// TermsFrom walk for every term, every proper prefix of one, one past
// each, "", a term past the last and the fuzzer's own probes, each
// term's block length through Counts, and TopTermsAcross's walk bounded
// by each of prefixBounds.
func FuzzSegmentDictionary(f *testing.F) {
	f.Add([]byte("apple\xffapp\xffbanana\xffb\xffbananas"), []byte("ap\xffbz\xffapples"))
	f.Add([]byte("\x00\xff\x00\x00\xffa\x00\xffa"), []byte("\xff\x00\x01"))
	f.Add([]byte(nil), []byte("x"))
	f.Add([]byte(strings.Repeat("w\xffwo\xffwor\xffword\xff", 3)), []byte("wordy"))

	f.Fuzz(func(t *testing.T, words, probeBytes []byte) {
		var vocab []string
		for _, w := range bytes.Split(words, []byte{0xff}) {
			if len(w) > 0 {
				vocab = append(vocab, string(w))
			}
		}
		slices.Sort(vocab)
		vocab = slices.Compact(vocab)
		if len(vocab) > 512 {
			vocab = vocab[:512]
		}
		r, err := OpenBytes("fuzz", segmentOf(t, vocab), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumTerms() != len(vocab) {
			t.Fatalf("%d terms, want %d", r.NumTerms(), len(vocab))
		}
		probes := []string{"", "\xff", string(probeBytes)}
		for _, p := range bytes.Split(probeBytes, []byte{0xff}) {
			probes = append(probes, string(p))
		}
		for i, term := range vocab {
			probes = append(probes, term, term+"\x00")
			for k := 1; k < len(term) && k <= 4; k++ {
				probes = append(probes, term[:k])
			}
			if l := r.Counts(term); l == nil || l.Len() != vocabDF(i) {
				t.Fatalf("Counts(%q) = %v, want %d postings", term, l, vocabDF(i))
			}
		}
		if len(vocab) > 0 {
			probes = append(probes, vocab[len(vocab)-1]+"\x00")
		}
		for _, p := range probes {
			i := sort.SearchStrings(vocab, p)
			wantOrd, wantDF := -1, 0
			if i < len(vocab) && vocab[i] == p {
				wantOrd, wantDF = i, vocabDF(i)
			}
			if got := r.find(p); got != wantOrd {
				t.Fatalf("find(%q) = %d, want %d", p, got, wantOrd)
			}
			if got := r.DocFreq(p); got != wantDF {
				t.Fatalf("DocFreq(%q) = %d, want %d", p, got, wantDF)
			}
			next := i
			w := r.TermsFrom(p)
			for term, df, ok := w.Next(); ok; term, df, ok = w.Next() {
				if next >= len(vocab) || term != vocab[next] || df != vocabDF(next) {
					t.Fatalf("TermsFrom(%q): yielded (%q, %d) at model ordinal %d", p, term, df, next)
				}
				next++
			}
			if next != len(vocab) {
				t.Fatalf("TermsFrom(%q) stopped at model ordinal %d of %d", p, next, len(vocab))
			}
		}
		for _, p := range prefixBounds(vocab) {
			var want []index.TermCount
			for i, term := range vocab {
				if strings.HasPrefix(term, p) {
					want = append(want, index.TermCount{Term: term, Files: vocabDF(i)})
				}
			}
			slices.SortFunc(want, index.CompareTermCounts)
			if got := index.TopTermsAcross([]index.Partition{r}, p, len(vocab)); !slices.Equal(got, want) {
				t.Fatalf("TopTermsAcross over %q = %v, model %v", p, got, want)
			}
		}
	})
}
