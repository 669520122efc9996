package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// bm25Fixture builds a three-file corpus with known term frequencies and
// document lengths:
//
//	f0 (4 tokens): cat cat the the
//	f1 (2 tokens): cat dog
//	f2 (6 tokens): dog dog dog the the the
func bm25Fixture() (*index.FileTable, *index.Index) {
	files := index.NewFileTable()
	bld := index.NewBuilder(false)
	add := func(path string, terms []string, counts []uint32, tokens uint32) {
		id := files.Add(path, int64(tokens), 1)
		files.SetTokens(id, tokens)
		bld.AddBlock(id, terms, counts)
	}
	add("f0", []string{"cat", "the"}, []uint32{2, 2}, 4)
	add("f1", []string{"cat", "dog"}, []uint32{1, 1}, 2)
	add("f2", []string{"dog", "the"}, []uint32{3, 3}, 6)
	return files, bld.Index()
}

// refIDF and refScore restate the BM25 formula independently of bm25.go so
// the test fails if either side drifts: the Lucene non-negative IDF and
// the k1=1.2, b=0.75 saturation curve.
func refIDF(df, n int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

func refScore(idf float64, tf, dl uint32, avgdl float64) float64 {
	t := float64(tf)
	return idf * (t * 2.2) / (t + 1.2*(1-0.75+0.75*float64(dl)/avgdl))
}

func TestBM25HandComputed(t *testing.T) {
	files, single := bm25Fixture()
	e := NewEngine(files, single)

	// N = 3 live files, 12 live tokens, avgdl = 4.
	const avgdl = 4.0
	idfCat := refIDF(2, 3) // "cat" appears in f0, f1
	idfDog := refIDF(2, 3) // "dog" appears in f1, f2

	res, err := e.Query(context.Background(), Request{
		Query:   MustParse("cat OR dog"),
		Ranking: RankBM25,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[postings.FileID]float64{
		0: refScore(idfCat, 2, 4, avgdl),
		1: refScore(idfCat, 1, 2, avgdl) + refScore(idfDog, 1, 2, avgdl),
		2: refScore(idfDog, 3, 6, avgdl),
	}
	if len(res.Hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(res.Hits))
	}
	for _, h := range res.Hits {
		if w := want[h.File]; h.Score != w {
			t.Errorf("file %d: score = %v, want %v", h.File, h.Score, w)
		}
	}
	// The short, term-dense f1 must outrank the long f2.
	if want[1] <= want[2] {
		t.Fatalf("fixture does not discriminate: f1 %v <= f2 %v", want[1], want[2])
	}
	if res.Hits[0].File != 1 {
		t.Errorf("top hit = file %d, want 1", res.Hits[0].File)
	}
}

// TestBM25StatsFinite: every vector with non-negative counts — a frequency
// above Docs (a stale broker table after deletions) and the extremes of
// int included — yields finite IDFs and average length, so no score is NaN
// or infinite. Request.Validate refuses the negative ones.
func TestBM25StatsFinite(t *testing.T) {
	q := MustParse("cat dog*")
	counts := []int{0, 1, 2, 3, 7, 1 << 32, 1<<53 + 1, math.MaxInt}
	for _, docs := range counts {
		for _, tokens := range []uint64{0, 1, 12, math.MaxUint64} {
			for _, term := range counts {
				for _, prefix := range counts {
					df := &DocFreqs{Docs: docs, Tokens: tokens, Terms: []int{term}, Prefixes: []int{prefix}}
					st, err := newBM25Stats(q, df)
					if err != nil {
						t.Fatalf("%+v: %v", df, err)
					}
					for _, v := range []float64{st.avgdl, st.idfTerm[0], st.idfPrefix[0]} {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%+v: stats %+v not finite", df, st)
						}
					}
				}
			}
		}
	}
}

func TestPrefixParseAndString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"repor*", "repor*"},
		{"Repor*", "repor*"},
		{"ca* AND dog", "(ca* AND dog)"},
		{"NOT ca*", "(NOT ca*)"},
		{"\"cat dog\" OR fi*", "(\"cat dog\" OR fi*)"},
		{"ca**", "ca*"},        // extra trailing stars collapse
		{"ca*t", "(ca AND t)"}, // '*' mid-word is punctuation, not a wildcard
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form is a fixed point of the grammar.
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse %q: %v", q.String(), err)
		} else if q2.String() != q.String() {
			t.Errorf("reparse %q = %q, not a fixed point", q.String(), q2.String())
		}
	}
	for _, bad := range []string{"*", "!*", "**"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestPrefixQueryMatches(t *testing.T) {
	files, single, replicas := fixture()
	for _, e := range []*Engine{NewEngine(files, single), NewEngine(files, index.Partitions(replicas)...)} {
		// "ca*" expands to {cat}: files 0, 3, 4, 7, 8.
		res, err := e.Query(context.Background(), Request{Query: MustParse("ca*")})
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(res.Hits); fmt.Sprint(got) != "[0 3 4 7 8]" {
			t.Errorf("ca* hits = %v", got)
		}
		// Prefix matching several terms: "d*"+"f*" behaves as the union.
		res, err = e.Query(context.Background(), Request{Query: MustParse("d* AND f*")})
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(res.Hits); fmt.Sprint(got) != "[4 6]" {
			t.Errorf("d* AND f* hits = %v", got)
		}
		// Negated prefix.
		res, err = e.Query(context.Background(), Request{Query: MustParse("cat AND NOT fi*")})
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(res.Hits); fmt.Sprint(got) != "[0 3 8]" {
			t.Errorf("cat AND NOT fi* hits = %v", got)
		}
	}
}

func TestPrefixHitTerms(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	res, err := e.Query(context.Background(), Request{Query: MustParse("ca* OR bird")})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.File == 8 { // bird cat: matches both the prefix and the term
			want := []string{"bird", "ca*"}
			if fmt.Sprint(h.Terms) != fmt.Sprint(want) {
				t.Errorf("file 8 terms = %v, want %v", h.Terms, want)
			}
		}
		if h.File == 3 { // cat only
			if fmt.Sprint(h.Terms) != "[ca*]" {
				t.Errorf("file 3 terms = %v, want [ca*]", h.Terms)
			}
		}
	}
}

func TestPrefixTooBroad(t *testing.T) {
	files := index.NewFileTable()
	bld := index.NewBuilder(false)
	id := files.Add("big", 1, 1)
	terms := make([]string, MaxPrefixTerms+1)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%04d", i)
	}
	bld.AddBlock(id, terms, nil)
	e := NewEngine(files, bld.Index())

	_, err := e.Query(context.Background(), Request{Query: MustParse("t*")})
	if !errors.Is(err, ErrPrefixTooBroad) {
		t.Fatalf("err = %v, want ErrPrefixTooBroad", err)
	}
	if !strings.Contains(err.Error(), `"t*"`) {
		t.Errorf("error does not name the prefix: %v", err)
	}
	// A longer prefix under the cap works.
	if _, err := e.Query(context.Background(), Request{Query: MustParse("t00*")}); err != nil {
		t.Errorf("t00*: %v", err)
	}
	// The per-request knob overrides the default in both directions: a
	// raised cap admits the broad prefix, a lowered one rejects a prefix
	// the default would allow. DocFreqs applies the same cap.
	if _, err := e.Query(context.Background(), Request{Query: MustParse("t*"), MaxPrefixTerms: MaxPrefixTerms + 1}); err != nil {
		t.Errorf("raised cap: %v", err)
	}
	_, err = e.Query(context.Background(), Request{Query: MustParse("t00*"), MaxPrefixTerms: 3})
	if !errors.Is(err, ErrPrefixTooBroad) {
		t.Errorf("lowered cap: err = %v, want ErrPrefixTooBroad", err)
	}
	if _, err := e.DocFreqs(context.Background(), MustParse("t00*"), 3); !errors.Is(err, ErrPrefixTooBroad) {
		t.Errorf("DocFreqs lowered cap: err = %v, want ErrPrefixTooBroad", err)
	}
	if _, err := e.DocFreqs(context.Background(), MustParse("t*"), MaxPrefixTerms+1); err != nil {
		t.Errorf("DocFreqs raised cap: %v", err)
	}
}

func TestSuggest(t *testing.T) {
	files := index.NewFileTable()
	bld := index.NewBuilder(false)
	docs := [][]string{
		{"app", "apple"},
		{"app", "apply"},
		{"app", "apple", "banana"},
		{"apply"},
	}
	for i, terms := range docs {
		id := files.Add(fmt.Sprintf("f%d", i), 1, 1)
		bld.AddBlock(id, terms, nil)
	}
	e := NewEngine(files, bld.Index())

	got, err := e.Suggest(context.Background(), "ap", 0)
	if err != nil {
		t.Fatal(err)
	}
	// df: app=3, apple=2, apply=2 — ties break ascending by term.
	want := []index.TermCount{{Term: "app", Files: 3}, {Term: "apple", Files: 2}, {Term: "apply", Files: 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Suggest(ap) = %v, want %v", got, want)
	}

	got, err = e.Suggest(context.Background(), "Ap*", 2) // tokenizer-normalized, '*' tolerated
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Term != "app" || got[1].Term != "apple" {
		t.Errorf("Suggest(Ap*, 2) = %v", got)
	}

	if got, err := e.Suggest(context.Background(), "zzz", 0); err != nil || len(got) != 0 {
		t.Errorf("Suggest(zzz) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "  ", "two words"} {
		if _, err := e.Suggest(context.Background(), bad, 0); err == nil {
			t.Errorf("Suggest(%q) succeeded, want error", bad)
		}
	}
}

// positionalFixture indexes one file per token slice with positions, so
// snippets can be reconstructed.
func positionalFixture(docs [][]string) (*index.FileTable, *index.Index) {
	files, ixs := positionalParts(docs, 1)
	return files, ixs[0]
}

// positionalParts is positionalFixture over n partitions, dealing file i to
// partition i mod n.
func positionalParts(docs [][]string, n int) (*index.FileTable, []*index.Index) {
	files := index.NewFileTable()
	ixs := newBuilders(n, true)
	for i, tokens := range docs {
		id := files.Add(fmt.Sprintf("f%d", i), int64(len(tokens)), 1)
		files.SetTokens(id, uint32(len(tokens)))
		pos := map[string][]uint32{}
		var terms []string
		for p, tok := range tokens {
			if _, seen := pos[tok]; !seen {
				terms = append(terms, tok)
			}
			pos[tok] = append(pos[tok], uint32(p))
		}
		var ends, flat []uint32
		for _, term := range terms {
			flat = append(flat, pos[term]...)
			ends = append(ends, uint32(len(flat)))
		}
		ixs[i%n].AddBlockPositional(id, terms, ends, flat)
	}
	return files, buildAll(ixs)
}

func TestSnippets(t *testing.T) {
	files, ix := positionalFixture([][]string{
		strings.Fields("the quick brown fox jumps over the lazy dog and then some more words"),
	})
	e := NewEngine(files, ix)

	res, err := e.Query(context.Background(), Request{
		Query:    MustParse("fox AND lazy"),
		Limit:    10,
		Snippets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Snippet == nil {
		t.Fatalf("hits = %+v", res.Hits)
	}
	sn := res.Hits[0].Snippet
	// Anchor is the earliest match ("fox" at position 3); the window spans
	// positions 0–8.
	wantText := "the quick brown fox jumps over the lazy dog"
	if sn.Text != wantText {
		t.Errorf("snippet text = %q, want %q", sn.Text, wantText)
	}
	wantSpans := []Span{
		{strings.Index(wantText, "fox"), strings.Index(wantText, "fox") + 3},
		{strings.Index(wantText, "lazy"), strings.Index(wantText, "lazy") + 4},
	}
	if fmt.Sprint(sn.Highlights) != fmt.Sprint(wantSpans) {
		t.Errorf("highlights = %v, want %v", sn.Highlights, wantSpans)
	}
	for _, s := range sn.Highlights {
		if s.Start < 0 || s.End > len(sn.Text) || s.Start >= s.End {
			t.Errorf("span %v out of bounds", s)
		}
	}
}

// TestPrefixFrequenciesSumAcrossTerms pins a prefix operator's frequency
// as the file's occurrences summed over the matched terms, whatever form
// the terms' lists are stored in: a file with one "report" and one
// "reports" scores repor* as 2 under RankTF on a positional index, on a
// position-free one (where both lists are boolean and a set union would
// say 1), and with snippets on, where the union is a positional merge.
func TestPrefixFrequenciesSumAcrossTerms(t *testing.T) {
	docs := [][]string{
		strings.Fields("report reports filed"),
		strings.Fields("reports only"),
	}
	files, positional := positionalFixture(docs)
	bld := index.NewBuilder(false)
	for i, tokens := range docs {
		bld.AddBlock(postings.FileID(i), tokens, nil)
	}
	plain := bld.Index()
	for _, tc := range []struct {
		name     string
		ix       *index.Index
		snippets bool
	}{
		{"positional", positional, false},
		{"positional with snippets", positional, true},
		{"position-free", plain, false},
	} {
		res, err := NewEngine(files, tc.ix).Query(context.Background(), Request{
			Query: MustParse("repor*"), Ranking: RankTF, Limit: 5, Snippets: tc.snippets,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Hits) != 2 || res.Hits[0].Path != "f0" || res.Hits[0].Score != 2 || res.Hits[1].Score != 1 {
			t.Errorf("%s: hits = %+v, want f0 with score 2 then f1 with score 1", tc.name, res.Hits)
		}
	}
}

func TestSnippetPrefixHighlight(t *testing.T) {
	files, ix := positionalFixture([][]string{
		strings.Fields("alpha reporting beta gamma"),
	})
	e := NewEngine(files, ix)
	res, err := e.Query(context.Background(), Request{
		Query:    MustParse("repor*"),
		Limit:    5,
		Snippets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Snippet == nil {
		t.Fatalf("hits = %+v", res.Hits)
	}
	sn := res.Hits[0].Snippet
	if sn.Text != "alpha reporting beta gamma" {
		t.Errorf("text = %q", sn.Text)
	}
	if len(sn.Highlights) != 1 || sn.Text[sn.Highlights[0].Start:sn.Highlights[0].End] != "reporting" {
		t.Errorf("highlights = %v", sn.Highlights)
	}
}

func TestSnippetsValidation(t *testing.T) {
	files, single, _ := fixture() // non-positional
	e := NewEngine(files, single)

	_, err := e.Query(context.Background(), Request{Query: MustParse("cat"), Limit: 5, Snippets: true})
	if !errors.Is(err, ErrNoPositions) {
		t.Errorf("non-positional snippets: err = %v, want ErrNoPositions", err)
	}

	pf, pix := positionalFixture([][]string{{"cat"}})
	pe := NewEngine(pf, pix)
	_, err = pe.Query(context.Background(), Request{Query: MustParse("cat"), Snippets: true})
	if err == nil || !strings.Contains(err.Error(), "positive limit") {
		t.Errorf("unbounded snippets: err = %v, want positive-limit error", err)
	}
}
