package desksearch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desksearch/internal/segment"
	"desksearch/internal/shard"
)

// savedLazy builds a positional catalog of corpusFS, saves it and opens
// the directory lazily with the default cache.
func savedLazy(t *testing.T, nFiles, shards int) (*Catalog, string) {
	t.Helper()
	built, err := IndexFS(corpusFS(t, nFiles), ".", Options{Shards: shards, Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenDir(dir, Options{Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat, dir
}

// TestPositionFreeQueriesDecodeNoPositions is the tentpole's claim as a
// count: on a positional lazy catalog, the queries that read no position —
// a single term, OR, NOT, a prefix, under any ranking, without snippets —
// decode blocks but never a positions section; a phrase and a snippet
// request, which do read positions, still do.
func TestPositionFreeQueriesDecodeNoPositions(t *testing.T) {
	cat, _ := savedLazy(t, 200, 3)
	for _, q := range []Query{
		{Text: "report"},
		{Text: "report", Ranking: RankBM25, Limit: 10},
		{Text: "milk OR flour", Ranking: RankTF},
		{Text: "milk OR flour OR budget", Ranking: RankBM25, Limit: 10},
		{Text: "report -draft", Limit: 10},
		{Text: "-draft", Limit: 10},
		{Text: "repor*", Ranking: RankBM25, Limit: 10},
		{Text: "repor* OR rev*", Ranking: RankTF},
		{Text: "milk (report OR repor*) -fore*", Ranking: RankBM25, Limit: 5},
	} {
		if _, err := cat.Query(context.Background(), q); err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		if _, positions := lazyDecodes(cat); positions != 0 {
			t.Fatalf("%q (rank %s) decoded %d positions sections, want 0", q.Text, q.Ranking, positions)
		}
	}
	blocks, _ := lazyDecodes(cat)
	if blocks == 0 {
		t.Fatal("the stream decoded no block at all; the count above is vacuous")
	}

	// The readers of positions still get them.
	if _, err := cat.Query(context.Background(), Query{Text: `"annual report"`, Limit: 10}); err != nil {
		t.Fatal(err)
	}
	_, phrase := lazyDecodes(cat)
	if phrase == 0 {
		t.Fatal("a phrase query decoded no positions")
	}
	if _, err := cat.Query(context.Background(), Query{Text: "rev*", Limit: 3, Snippets: true}); err != nil {
		t.Fatal(err)
	}
	if _, snippet := lazyDecodes(cat); snippet <= phrase {
		t.Fatal("a snippet request decoded no further positions")
	}
}

// TestPrefixSnippetHighlightsMatchedToken keeps the one reader of an
// expansion's positions working: with snippets on, a prefix query's window
// is anchored on a token the prefix matched, that token is highlighted,
// and the page is the heap catalog's to the byte.
func TestPrefixSnippetHighlightsMatchedToken(t *testing.T) {
	cat, dir := savedLazy(t, 120, 2)
	heap, err := LoadDir(dir, Options{Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Text: "fore*", Ranking: RankBM25, Limit: 8, Snippets: true}
	// A page without snippets first, so the snippet request finds the
	// expansion's blocks cached at the counts tier and must upgrade them.
	plain := q
	plain.Snippets = false
	if _, err := cat.Query(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	got, err := cat.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := heap.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	equalResponses(t, "fore* with snippets", want, got)
	if len(got.Hits) == 0 {
		t.Fatal("no hits")
	}
	for _, h := range got.Hits {
		if h.Snippet == nil || len(h.Snippet.Highlights) == 0 {
			t.Fatalf("%s: no highlighted snippet: %+v", h.Path, h.Snippet)
		}
		found := false
		for _, sp := range h.Snippet.Highlights {
			if strings.HasPrefix(h.Snippet.Text[sp.Start:sp.End], "fore") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no highlight covers a fore* token in %q (%v)", h.Path, h.Snippet.Text, h.Snippet.Highlights)
		}
	}
}

// TestCorruptBlockFailsTheQuery flips one byte inside a posting block of a
// saved segment. The directory still opens — blocks are verified when
// read — and from then on every way a query can reach that block (Counts
// under a single term and OR, Lookup under a phrase and snippets, the
// streaming iterator under AND, prefix expansion) fails with the typed
// error instead of answering without the term's postings, each time, while
// queries that stay off the block answer as before.
func TestCorruptBlockFailsTheQuery(t *testing.T) {
	built, err := IndexFS(corpusFS(t, 120), ".", Options{Shards: 2, Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	bad := flipLastBlock(t, filepath.Join(dir, shard.SegmentName(0)))
	if len(bad) < 4 || bad == "milk" || bad == "report" || bad == "draft" || strings.HasPrefix(bad, "fore") {
		t.Fatalf("the corrupted block is %q's, which the untouched queries below read", bad)
	}

	cat, err := OpenDir(dir, Options{Positions: true})
	if err != nil {
		t.Fatalf("open after a posting-block flip: %v", err)
	}
	defer cat.Close()

	for _, tc := range []struct {
		path string
		q    Query
	}{
		{"Counts (single term)", Query{Text: bad}},
		{"Counts (OR)", Query{Text: bad + " OR milk", Ranking: RankTF}},
		{"Counts (prefix expansion)", Query{Text: bad[:3] + "*", Ranking: RankBM25, Limit: 5}},
		{"Lookup (phrase)", Query{Text: `"` + bad + ` report"`, Limit: 5}},
		{"Lookup (snippets)", Query{Text: "milk", Limit: 3, Snippets: true}},
		{"Iterator (AND)", Query{Text: bad + " report", Limit: 5}},
		{"Iterator (scoring)", Query{Text: "milk OR " + bad, Ranking: RankBM25, Limit: 5}},
	} {
		before := cat.SegmentCorruptions()
		resp, err := cat.Query(context.Background(), tc.q)
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Code != CodeSegmentCorrupt || !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("%s: %q answered (%v, %v), want a QueryError with code %s", tc.path, tc.q.Text, resp, err, CodeSegmentCorrupt)
		}
		if cat.SegmentCorruptions() == before {
			t.Fatalf("%s: the corruption counter did not move", tc.path)
		}
		// The fault is one block's: a query off it answers, every time.
		for _, text := range []string{"milk", "report -draft", "fore*"} {
			if _, err := cat.Query(context.Background(), Query{Text: text, Ranking: RankBM25, Limit: 5}); err != nil {
				t.Fatalf("after %s: untouched %q: %v", tc.path, text, err)
			}
		}
	}
	if _, err := cat.DocFreqs(context.Background(), Query{Text: bad[:3] + "*"}); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("DocFreqs over the corrupt expansion = %v, want ErrSegmentCorrupt", err)
	}
}

// flipLastBlock flips a byte two from the end of the segment file at
// path — blocks lie in term order at the end of the file, so that is
// inside the block of the segment's last term, which it returns. Header
// and dictionary stay intact.
func flipLastBlock(t *testing.T, path string) (term string) {
	t.Helper()
	r, err := segment.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.TermsFrom("", func(name string, _ int) bool {
		term = name
		return true
	})
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return term
}
