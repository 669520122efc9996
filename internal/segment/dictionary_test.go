package segment

import (
	"bytes"
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
// document set and the reader itself.
func TestReaderResidentBytesMatchesHeap(t *testing.T) {
	img := segmentOf(t, randomVocab(10000, 1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := OpenBytes("resident", img, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	est := r.ResidentBytes()
	runtime.KeepAlive(r)
	if ratio := float64(est) / float64(retained); ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("ResidentBytes %d, retained heap %d (ratio %.2f)", est, retained, ratio)
	}
	t.Logf("%d terms: ResidentBytes %d, retained heap %d", r.NumTerms(), est, retained)
}

// TestDictionaryAllocations pins what the dictionary costs in
// allocations: opening a segment makes as many for 10 000 terms as for
// 100 (each column is one), and DocFreq and a full TermsFrom walk make
// none.
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
		r.TermsFrom("", func(string, int) bool { walked++; return true })
	}); a != 0 {
		t.Fatalf("a full TermsFrom walk made %.1f allocations", a)
	}
	if walked != 11*r.NumTerms() {
		t.Fatalf("walked %d terms in 11 walks of %d", walked, r.NumTerms())
	}
}

// TestDictionarySurvivesUnmap holds the dictionary to its own memory: on a
// segment opened from a file (mapped, on linux), the terms TermsFrom
// yielded before Close, and what DocFreq and TermsFrom answer after it,
// stay intact once the mapping is gone.
func TestDictionarySurvivesUnmap(t *testing.T) {
	ix := buildIndex(t, 300, true)
	r, err := Open(writeSegment(t, ix), nil)
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
		p.TermsFrom(from, func(term string, df int) bool {
			out = append(out, termDF{term, df})
			return true
		})
		return out
	}
	want := walk(ix, "")
	yielded := walk(r, "")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(yielded, want) {
		t.Fatalf("terms yielded before Close read %v after it, want %v", yielded, want)
	}
	for _, e := range want {
		if df := r.DocFreq(e.term); df != e.df {
			t.Fatalf("DocFreq(%q) after Close = %d, want %d", e.term, df, e.df)
		}
	}
	mid := want[len(want)/2].term
	if got := walk(r, mid); !slices.Equal(got, walk(ix, mid)) {
		t.Fatalf("TermsFrom(%q) after Close = %v", mid, got)
	}
}

// FuzzSegmentDictionary writes a vocabulary drawn from the fuzzer's bytes
// (split at 0xff, any other byte allowed in a term) with Write, opens it
// and holds the dictionary to a sorted-slice model: find, DocFreq and a
// TermsFrom walk for every term, every proper prefix of one, one past
// each, "", a term past the last and the fuzzer's own probes, and each
// term's block length through Counts.
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
			r.TermsFrom(p, func(term string, df int) bool {
				if next >= len(vocab) || term != vocab[next] || df != vocabDF(next) {
					t.Fatalf("TermsFrom(%q): yielded (%q, %d) at model ordinal %d", p, term, df, next)
				}
				next++
				return true
			})
			if next != len(vocab) {
				t.Fatalf("TermsFrom(%q) stopped at model ordinal %d of %d", p, next, len(vocab))
			}
		}
	})
}
