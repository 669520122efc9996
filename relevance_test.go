package desksearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"desksearch/internal/vfs"
)

// bm25FS generates a deterministic corpus with skewed term frequencies and
// widely varying document lengths — the regime where BM25's IDF weighting
// and length normalization actually discriminate.
func bm25FS(t *testing.T) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	vocab := []string{
		"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
		"theta", "iota", "kappa", "lambda", "report", "reposition",
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 24; i++ {
		n := 3 + rng.Intn(60) // token lengths from 3 to 62
		words := make([]string, n)
		for j := range words {
			// Skew: low vocabulary indices appear far more often.
			k := rng.Intn(len(vocab))
			if rng.Intn(2) == 0 {
				k = rng.Intn(4)
			}
			words[j] = vocab[k]
		}
		name := fmt.Sprintf("dir%d/doc%02d.txt", i%3, i)
		if err := fs.WriteFile(name, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

var bm25Queries = []string{
	"alpha",
	"report",
	"alpha OR kappa",
	"alpha AND beta AND NOT gamma",
	"repo*",
	"alpha OR rep*",
	"a* OR b*",
}

// bm25Scores runs q BM25-ranked and returns the ordered (path, score-bits)
// rendering of the full hit list, so two catalogs compare bit-for-bit.
func bm25Scores(t *testing.T, cat *Catalog, q string) []string {
	t.Helper()
	resp, err := cat.Query(context.Background(), Query{Text: q, Ranking: RankBM25})
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	out := make([]string, len(resp.Hits))
	for i, h := range resp.Hits {
		out[i] = fmt.Sprintf("%s:%016x", h.Path, math.Float64bits(h.Score))
	}
	return out
}

func assertBM25Identical(t *testing.T, stage string, flat, sharded *Catalog) {
	t.Helper()
	for _, q := range bm25Queries {
		a := bm25Scores(t, flat, q)
		b := bm25Scores(t, sharded, q)
		if len(a) == 0 {
			t.Errorf("%s: %q matched nothing — fixture too weak", stage, q)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: %q diverges\n  unsharded: %v\n  sharded:   %v", stage, q, a, b)
		}
	}
}

// TestBM25ShardInvariance is the acceptance property for the v3 relevance
// work: a sharded catalog's BM25 scores are byte-for-byte (Float64bits)
// the unsharded catalog's scores, through every catalog lifecycle — fresh
// build, persisted round-trip, and incremental update.
func TestBM25ShardInvariance(t *testing.T) {
	fs := bm25FS(t)
	flat, err := IndexFS(fs, ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := IndexFS(fs, ".", Options{Implementation: ReplicatedSearch, Shards: 4, Extractors: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertBM25Identical(t, "fresh", flat, sharded)

	// Persisted round-trip: sharded catalogs through SaveDir/LoadDir.
	dir := t.TempDir()
	if err := sharded.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertBM25Identical(t, "persisted", flat, loaded)

	// Incremental update: mutate the corpus (add, modify, delete) and
	// apply the same changeset to the flat and the loaded sharded catalog.
	if err := fs.WriteFile("dir0/new.txt", []byte("alpha alpha report kappa")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("dir0/doc00.txt", []byte("beta beta beta reposition")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("dir1/doc01.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Update(fs, "."); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Update(fs, "."); err != nil {
		t.Fatal(err)
	}
	assertBM25Identical(t, "updated", flat, loaded)
}

// TestBM25SurvivesUnshardedRoundTrip: a catalog built without Shards saves
// its own indices as the directory's segments, and the manifest preserves
// document lengths, so its round trip scores identically too.
func TestBM25SurvivesUnshardedRoundTrip(t *testing.T) {
	fs := bm25FS(t)
	cat, err := IndexFS(fs, ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertBM25Identical(t, "unsharded", cat, loaded)
}

// TestSuggestPublicAPI exercises Catalog.Suggest end to end: document-
// frequency ranking with ties broken alphabetically, and the n cap.
func TestSuggestPublicAPI(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cat.Suggest(context.Background(), "rep", 0)
	if err != nil {
		t.Fatal(err)
	}
	// "report" appears in five demo files; no other term shares the prefix.
	if len(got) != 1 || got[0].Term != "report" || got[0].Files != 5 {
		t.Errorf("Suggest(rep) = %+v", got)
	}
	if _, err := cat.Suggest(context.Background(), "two words", 0); err == nil {
		t.Error("multi-word prefix accepted")
	}
}

// TestSnippetsPublicAPI: a positional catalog returns highlighted context
// windows; one built without positions degrades with the phrase-style
// error.
func TestSnippetsPublicAPI(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cat.Query(context.Background(), Query{Text: "quarterly", Limit: 10, Snippets: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range resp.Hits {
		if h.Snippet == nil {
			t.Fatalf("%s: nil snippet", h.Path)
		}
		if !strings.Contains(h.Snippet.Text, "quarterly") {
			t.Errorf("%s: snippet %q misses the match", h.Path, h.Snippet.Text)
		}
		if len(h.Snippet.Highlights) == 0 {
			t.Errorf("%s: no highlights", h.Path)
		}
		for _, s := range h.Snippet.Highlights {
			if s.Start < 0 || s.End > len(h.Snippet.Text) || s.Start >= s.End {
				t.Errorf("%s: span %+v out of bounds", h.Path, s)
			}
		}
	}

	plain, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Query(context.Background(), Query{Text: "quarterly", Limit: 10, Snippets: true}); err == nil {
		t.Error("snippets on a position-free catalog succeeded")
	}
}

// TestPrefixQueryPublicAPI: the trailing-wildcard operator works through
// the public Query API and round-trips through ParseQuery.
func TestPrefixQueryPublicAPI(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits := queryAll(t, cat, "repor*")
	want := queryAll(t, cat, "report")
	if fmt.Sprint(paths(hits)) != fmt.Sprint(paths(want)) {
		t.Errorf("repor* = %v, report = %v", paths(hits), paths(want))
	}
	e, err := ParseQuery("milk AND NOT repor*")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(milk AND (NOT repor*))" {
		t.Errorf("canonical form = %q", e.String())
	}
	resp, err := cat.Query(context.Background(), Query{Expr: e})
	if err != nil {
		t.Fatal(err)
	}
	// In the demo corpus repor* expands to exactly {report}, so the
	// negated prefix behaves like the negated term.
	if want := queryAll(t, cat, "milk AND NOT report"); fmt.Sprint(paths(resp.Hits)) != fmt.Sprint(paths(want)) {
		t.Errorf("milk AND NOT repor* = %v, want %v", paths(resp.Hits), paths(want))
	}
}

func TestParseRankingWire(t *testing.T) {
	cases := []struct {
		in   string
		want Ranking
		ok   bool
	}{
		{"count", RankCount, true},
		{"COUNT", RankCount, true},
		{"coordination", RankCount, true},
		{"tf", RankTF, true},
		{"bm25", RankBM25, true},
		{"BM25", RankBM25, true},
		{"0", RankCount, true},
		{"1", RankTF, true},
		{"2", RankBM25, true},
		{"3", 0, false},
		{"-1", 0, false},
		{"bm", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseRanking(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseRanking(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseRanking(%q) succeeded with %v, want error", c.in, got)
		}
	}
	for _, r := range []Ranking{RankCount, RankTF, RankBM25} {
		back, err := ParseRanking(r.String())
		if err != nil || back != r {
			t.Errorf("round trip %v: %v, %v", r, back, err)
		}
	}
}
