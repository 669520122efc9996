package extract

import (
	"bytes"
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

func TestFileIndexesMarkup(t *testing.T) {
	// There is one extraction rule: a file's bytes go to the scanner as
	// they are, so markup is indexed beside the text it wraps.
	e := New(testFS(t), Options{})
	block, err := e.File("page.html", 0)
	if err != nil {
		t.Fatal(err)
	}
	terms := map[string]bool{}
	for _, term := range block.Terms {
		terms[term] = true
	}
	for _, want := range []string{"web", "words", "html", "script", "hidden"} {
		if !terms[want] {
			t.Errorf("term %q missing: %v", want, block.Terms)
		}
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
	for _, positional := range []bool{false, true} {
		name := "counted"
		if positional {
			name = "positional"
		}
		b.Run(name, func(b *testing.B) {
			e := New(fs, Options{Positions: positional})
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.File("doc.txt", 0); err != nil {
					b.Fatal(err)
				}
			}
		})
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
	// "the cat and the dog and the cat" → ordinals 0..7, laid out term by
	// term in first-occurrence order.
	if want := []string{"the", "cat", "and", "dog"}; !reflect.DeepEqual(block.Terms, want) {
		t.Fatalf("Terms = %v, want %v", block.Terms, want)
	}
	if want := []uint32{3, 5, 7, 8}; !reflect.DeepEqual(block.Ends, want) {
		t.Errorf("Ends = %v, want %v", block.Ends, want)
	}
	if want := []uint32{0, 3, 6, 1, 7, 2, 5, 4}; !reflect.DeepEqual(block.Pos, want) {
		t.Errorf("Pos = %v, want %v", block.Pos, want)
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
	if !reflect.DeepEqual(block.Terms, []string{"cat", "dog"}) ||
		!reflect.DeepEqual(block.Ends, []uint32{2, 3}) || !reflect.DeepEqual(block.Pos, []uint32{0, 2, 1}) {
		t.Fatalf("block = %v / %v / %v, want [cat dog] / [2 3] / [0 2 1]", block.Terms, block.Ends, block.Pos)
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

// naiveTerms is the scanner's rule written the slow way: split on every
// byte outside [A-Za-z0-9], lower-case each field, drop fields longer than
// tokenize.MaxTermLen.
func naiveTerms(data []byte) []string {
	var out []string
	for _, f := range bytes.FieldsFunc(data, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
	}) {
		if len(f) <= tokenize.MaxTermLen {
			out = append(out, strings.ToLower(string(f)))
		}
	}
	return out
}

// wantBlock is the naive reference: naiveTerms and a Go map, laid out as
// the block's columns — the distinct terms in first-occurrence order,
// their counts, their runs term by term in Pos ending at Ends — with the
// token total.
func wantBlock(data []byte) (want TermBlock) {
	runs := map[string][]uint32{}
	words := naiveTerms(data)
	for p, term := range words {
		if _, seen := runs[term]; !seen {
			want.Terms = append(want.Terms, term)
		}
		runs[term] = append(runs[term], uint32(p))
	}
	for _, term := range want.Terms {
		want.Counts = append(want.Counts, uint32(len(runs[term])))
		want.Pos = append(want.Pos, runs[term]...)
		want.Ends = append(want.Ends, uint32(len(want.Pos)))
	}
	want.Tokens = uint32(len(words))
	return want
}

// checkBlock fails t unless block is want, the reference wantBlock lays
// out, as an extractor with Options.Positions set to positional must
// return it: counts or runs, never both, and every slice exact-size.
func checkBlock(t *testing.T, block, want TermBlock, positional bool) {
	t.Helper()
	if positional {
		want.Counts = nil
	} else {
		want.Ends, want.Pos = nil, nil
	}
	// An empty file's block holds empty, non-nil columns: their kind is
	// still readable.
	if len(want.Terms) == 0 {
		want.Terms = []string{}
		if positional {
			want.Ends, want.Pos = []uint32{}, []uint32{}
		} else {
			want.Counts = []uint32{}
		}
	}
	want.File = block.File
	if !reflect.DeepEqual(block, want) {
		t.Fatalf("positional=%v: block\n%v\nwant\n%v", positional, block, want)
	}
	for _, col := range [][]uint32{block.Counts, block.Ends, block.Pos} {
		if cap(col) != len(col) {
			t.Fatalf("positional=%v: a column has cap %d, len %d", positional, cap(col), len(col))
		}
	}
}

func cloneBlock(b TermBlock) TermBlock {
	c := b
	c.Terms, c.Counts = slices.Clone(b.Terms), slices.Clone(b.Counts)
	c.Ends, c.Pos = slices.Clone(b.Ends), slices.Clone(b.Pos)
	return c
}

// TestReusedExtractorMatchesNaive: one Extractor, reused for a few hundred
// random files, yields for every file what a fresh map over naiveTerms
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
			checkBlock(t, block, wantBlock(data), positional)
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

// FuzzFile holds Extractor.File to wantBlock on arbitrary bytes: terms in
// first-occurrence order, counts, Ends/Pos runs and Tokens, counted and
// positional. One extractor reads the input's two halves and then the
// whole, so a table reused across files — stale entries, kept key
// strings, a reset ordinal sequence — is what is checked.
func FuzzFile(f *testing.F) {
	f.Add([]byte("The cat AND the Dog and THE cat"))
	f.Add([]byte("2010 report r2d2 2010 REPORT 0x1F 007"))
	f.Add([]byte("ümlaut naïve \xff\x80Zed zed\x00ZED \xc3\xa9t\xc3\xa9"))
	f.Add([]byte(strings.Repeat("a", tokenize.MaxTermLen) + " b " + strings.Repeat("a", tokenize.MaxTermLen+1) + " b " +
		strings.Repeat("Q", tokenize.MaxTermLen) + "," + strings.Repeat("q", tokenize.MaxTermLen)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := vfs.NewMemFS()
		half := len(data) / 2
		files := map[string][]byte{"a": data[:half], "b": data[half:], "ab": data}
		for name, body := range files {
			if err := fsys.WriteFile(name, body); err != nil {
				t.Fatal(err)
			}
		}
		for _, positional := range []bool{false, true} {
			e := New(fsys, Options{Positions: positional})
			for id, name := range []string{"a", "b", "ab"} {
				block, err := e.File(name, postings.FileID(id))
				if err != nil {
					t.Fatal(err)
				}
				checkBlock(t, block, wantBlock(files[name]), positional)
			}
		}
	})
}
