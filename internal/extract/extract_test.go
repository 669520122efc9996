package extract

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"desksearch/internal/postings"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

func testFS(t *testing.T) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	files := map[string]string{
		"plain.txt": "the cat and the dog and the cat",
		"page.html": "<html><body><p>web Words</p><script>hidden()</script></body></html>",
		"memo.wp":   ".wp 1.0\n.ti Memo Title\nbody words body\n",
		"empty.txt": "",
	}
	for name, content := range files {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func sorted(ss []string) []string {
	out := append([]string{}, ss...)
	sort.Strings(out)
	return out
}

func TestFileDeduplicates(t *testing.T) {
	e := New(testFS(t), Options{})
	block, err := e.File("plain.txt", 7)
	if err != nil {
		t.Fatal(err)
	}
	if block.File != 7 {
		t.Errorf("File = %d", block.File)
	}
	want := []string{"and", "cat", "dog", "the"}
	if got := sorted(block.Terms); len(got) != 4 || got[0] != "and" || got[3] != "the" {
		t.Errorf("Terms = %v, want %v", got, want)
	}
}

func TestFileEmpty(t *testing.T) {
	e := New(testFS(t), Options{})
	block, err := e.File("empty.txt", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Terms) != 0 {
		t.Errorf("empty file produced terms %v", block.Terms)
	}
}

func TestFileReuseDoesNotLeakTerms(t *testing.T) {
	// The internal hash set is reused; terms from file A must not appear in
	// file B's block.
	e := New(testFS(t), Options{})
	if _, err := e.File("plain.txt", 0); err != nil {
		t.Fatal(err)
	}
	block, err := e.File("memo.wp", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range block.Terms {
		if term == "cat" || term == "dog" {
			t.Errorf("term %q leaked from previous file", term)
		}
	}
}

func TestFileWithFormats(t *testing.T) {
	e := New(testFS(t), Options{Formats: true})
	block, err := e.File("page.html", 0)
	if err != nil {
		t.Fatal(err)
	}
	terms := map[string]bool{}
	for _, term := range block.Terms {
		terms[term] = true
	}
	if !terms["web"] || !terms["words"] {
		t.Errorf("content terms missing: %v", block.Terms)
	}
	if terms["hidden"] || terms["script"] {
		t.Errorf("markup leaked into terms: %v", block.Terms)
	}
}

func TestFileWithoutFormatsIndexesMarkup(t *testing.T) {
	// Formats off (the paper's setup): markup is scanned literally.
	e := New(testFS(t), Options{})
	block, err := e.File("page.html", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, term := range block.Terms {
		if term == "script" {
			found = true
		}
	}
	if !found {
		t.Error("markup should be indexed when Formats is off")
	}
}

func TestFileMissing(t *testing.T) {
	e := New(testFS(t), Options{})
	if _, err := e.File("nope.txt", 0); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("err = %v", err)
	}
}

func TestScanOnlyCountsOccurrences(t *testing.T) {
	e := New(testFS(t), Options{})
	n, err := e.ScanOnly("plain.txt")
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("ScanOnly = %d, want 8", n)
	}
	if _, err := e.ScanOnly("nope"); err == nil {
		t.Error("missing file not reported")
	}
}

func TestReadOnlyCountsBytes(t *testing.T) {
	e := New(testFS(t), Options{})
	n, err := e.ReadOnly("plain.txt")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len("the cat and the dog and the cat")) {
		t.Errorf("ReadOnly = %d", n)
	}
	if _, err := e.ReadOnly("nope"); err == nil {
		t.Error("missing file not reported")
	}
}

func BenchmarkFile(b *testing.B) {
	fs := vfs.NewMemFS()
	body := make([]byte, 0, 64<<10)
	for len(body) < 60<<10 {
		body = append(body, "lorem ipsum dolor sit amet consectetur adipiscing elit sed do "...)
	}
	fs.WriteFile("doc.txt", body)
	e := New(fs, Options{})
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.File("doc.txt", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFileCounts: File reports each term's occurrence count alongside the
// duplicate-free term block.
func TestFileCounts(t *testing.T) {
	fs := testFS(t)
	e := New(fs, Options{})
	block, err := e.File("plain.txt", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Counts) != len(block.Terms) {
		t.Fatalf("counts %d != terms %d", len(block.Counts), len(block.Terms))
	}
	want := map[string]uint32{"the": 3, "cat": 2, "and": 2, "dog": 1}
	for i, term := range block.Terms {
		if block.Counts[i] != want[term] {
			t.Errorf("count(%q) = %d, want %d", term, block.Counts[i], want[term])
		}
	}
}

// TestFilePositions: with Options.Positions the extractor records each
// term's occurrence positions as emission ordinals; counts stay implicit
// (len of the position run).
func TestFilePositions(t *testing.T) {
	fs := testFS(t)
	e := New(fs, Options{Positions: true})
	block, err := e.File("plain.txt", 7)
	if err != nil {
		t.Fatal(err)
	}
	if block.Counts != nil {
		t.Error("positional block also carries counts")
	}
	if len(block.Positions) != len(block.Terms) {
		t.Fatalf("positions %d != terms %d", len(block.Positions), len(block.Terms))
	}
	// "the cat and the dog and the cat" → ordinals 0..7.
	want := map[string][]uint32{"the": {0, 3, 6}, "cat": {1, 7}, "and": {2, 5}, "dog": {4}}
	for i, term := range block.Terms {
		w := want[term]
		if len(block.Positions[i]) != len(w) {
			t.Fatalf("positions(%q) = %v, want %v", term, block.Positions[i], w)
		}
		for k := range w {
			if block.Positions[i][k] != w[k] {
				t.Fatalf("positions(%q) = %v, want %v", term, block.Positions[i], w)
			}
		}
	}
}

// TestFilePositionsSkipDropped: a dropped run (longer than
// tokenize.MaxTermLen) does not advance the position counter, so phrases
// still match across it.
func TestFilePositionsSkipDropped(t *testing.T) {
	fs := vfs.NewMemFS()
	long := strings.Repeat("x", tokenize.MaxTermLen+1)
	if err := fs.WriteFile("long.txt", []byte("cat "+long+" dog "+long+long+" cat")); err != nil {
		t.Fatal(err)
	}
	e := New(fs, Options{Positions: true})
	block, err := e.File("long.txt", 7)
	if err != nil {
		t.Fatal(err)
	}
	// The two over-long runs are dropped → cat dog cat.
	want := map[string][]uint32{"cat": {0, 2}, "dog": {1}}
	if len(block.Terms) != len(want) {
		t.Fatalf("terms = %v", block.Terms)
	}
	for i, term := range block.Terms {
		if !reflect.DeepEqual(block.Positions[i], want[term]) {
			t.Fatalf("positions(%q) = %v, want %v", term, block.Positions[i], want[term])
		}
	}
}

// genText writes about n tokens drawn from vocab — random case, random
// separators, and now and then a digit run, a one-letter word, a common
// short word, or a run of 64 to 76 bytes (tokenize.MaxTermLen and over) —
// and, with fresh > 0, that many
// words no earlier file contained.
func genText(rng *rand.Rand, n int, vocab []string, fresh int) []byte {
	const seps = " \n\t.,;-_<>/"
	var buf []byte
	for i := 0; i < n+fresh; i++ {
		var w string
		switch r := rng.Intn(20); {
		case i >= n:
			w = fmt.Sprintf("fresh%dx%d", rng.Int63(), i)
		case r == 0:
			w = strconv.Itoa(rng.Intn(1000))
		case r == 1:
			w = string(rune('a' + rng.Intn(26)))
		case r == 2:
			w = []string{"the", "And", "OF"}[rng.Intn(3)]
		case r == 3 && rng.Intn(4) == 0:
			w = strings.Repeat("long", 16+rng.Intn(4))
		default:
			w = vocab[rng.Intn(len(vocab))]
		}
		for _, c := range []byte(w) {
			if rng.Intn(6) == 0 && c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf = append(buf, c)
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			buf = append(buf, seps[rng.Intn(len(seps))])
		}
	}
	return buf
}

// wantBlock is the naive reference: tokenize.Terms and a Go map.
func wantBlock(data []byte) (order []string, positions map[string][]uint32) {
	positions = map[string][]uint32{}
	for pos, term := range tokenize.Terms(data) {
		if _, seen := positions[term]; !seen {
			order = append(order, term)
		}
		positions[term] = append(positions[term], uint32(pos))
	}
	return order, positions
}

func cloneBlock(b TermBlock) TermBlock {
	c := b
	c.Terms, c.Counts, c.Positions = slices.Clone(b.Terms), slices.Clone(b.Counts), slices.Clone(b.Positions)
	for i, p := range c.Positions {
		c.Positions[i] = slices.Clone(p)
	}
	return c
}

// TestReusedExtractorMatchesNaive: one Extractor, reused for a few hundred
// random files, yields for every file what a fresh map over tokenize.Terms
// yields — terms in first-occurrence order, positions (or counts), Tokens —
// and a block is still what it was a hundred files later: the extractor
// reuses its table, its ordinal sequence and the scanner its scratch, and
// none of that may reach a block already handed out.
func TestReusedExtractorMatchesNaive(t *testing.T) {
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%dq%d", i, i*i)
	}
	for _, positional := range []bool{true, false} {
		rng := rand.New(rand.NewSource(19))
		fs := vfs.NewMemFS()
		e := New(fs, Options{Positions: positional})
		type kept struct{ block, copy TermBlock }
		var history []kept
		for file := 0; file < 260; file++ {
			n, fresh := rng.Intn(400), 0
			switch {
			case file%37 == 5:
				n = 0 // empty file
			case file%50 == 20:
				// More new terms than the table has free slots,
				// once early and again when it is full of stale ones.
				n, fresh = 3000, 5000
			}
			data := genText(rng, n, vocab, fresh)
			name := fmt.Sprintf("f%d.txt", file)
			if err := fs.WriteFile(name, data); err != nil {
				t.Fatal(err)
			}
			block, err := e.File(name, postings.FileID(file))
			if err != nil {
				t.Fatal(err)
			}
			order, want := wantBlock(data)
			if !slices.Equal(block.Terms, order) {
				t.Fatalf("positional=%v file %d: %d terms, want %d in first-occurrence order", positional, file, len(block.Terms), len(order))
			}
			tokens := uint32(0)
			for i, term := range block.Terms {
				tokens += uint32(len(want[term]))
				if !positional {
					if block.Counts[i] != uint32(len(want[term])) {
						t.Fatalf("file %d: count(%q) = %d, want %d", file, term, block.Counts[i], len(want[term]))
					}
					continue
				}
				p := block.Positions[i]
				if !reflect.DeepEqual(p, want[term]) {
					t.Fatalf("file %d: positions(%q) = %v, want %v", file, term, p, want[term])
				}
				if cap(p) != len(p) {
					t.Fatalf("file %d: positions(%q) has cap %d, len %d", file, term, cap(p), len(p))
				}
				for k := 1; k < len(p); k++ {
					if p[k] <= p[k-1] {
						t.Fatalf("file %d: positions(%q) not strictly ascending: %v", file, term, p)
					}
				}
			}
			if block.Tokens != tokens {
				t.Fatalf("file %d: Tokens = %d, want %d", file, block.Tokens, tokens)
			}
			if positional == (block.Counts != nil) || positional != (block.Positions != nil) {
				t.Fatalf("file %d: positional=%v but Counts=%v Positions=%v", file, positional, block.Counts != nil, block.Positions != nil)
			}
			history = append(history, kept{block, cloneBlock(block)})
			if k := file - 100; k >= 0 && !reflect.DeepEqual(history[k].block, history[k].copy) {
				t.Fatalf("positional=%v: block of file %d changed while files %d..%d were extracted", positional, k, k+1, file)
			}
		}
	}
}

// TestFileAllocationsConstant is the machine-independent form of the
// build-speed claim: on a warm extractor File allocates the block's
// slices and a fixed handful besides — the same number for a file of a
// hundred tokens as for one of a hundred thousand.
func TestFileAllocationsConstant(t *testing.T) {
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%dq%d", i, i*i)
	}
	rng := rand.New(rand.NewSource(19))
	fs := vfs.NewMemFS()
	for name, n := range map[string]int{"small.txt": 100, "large.txt": 100_000} {
		if err := fs.WriteFile(name, genText(rng, n, vocab, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, positional := range []bool{true, false} {
		e := New(fs, Options{Positions: positional})
		measure := func(name string) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := e.File(name, 0); err != nil {
					t.Fatal(err)
				}
			})
		}
		measure("large.txt") // warm: table, key strings, ordinal sequence
		small, large := measure("small.txt"), measure("large.txt")
		if small != large || large > 6 {
			t.Errorf("positional=%v: %v allocations for 100 tokens, %v for 100000; want equal and <= 6", positional, small, large)
		}
	}
}
