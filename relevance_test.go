package desksearch

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"desksearch/internal/postings"
	"desksearch/internal/shard"
	"desksearch/internal/vfs"
)

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

// TestPrefixCapIsPerPartition pins the one answer that depends on the
// catalog's shape: Query.MaxPrefixTerms counts a prefix's expansions per
// partition, so "p*" over three files holding "pa", "pb" and "pc" fails
// with ErrPrefixTooBroad on one shard and answers on three, under a cap
// of the most p-terms any one of the three shards holds.
func TestPrefixCapIsPerPartition(t *testing.T) {
	fs := vfs.NewMemFS()
	perShard := map[int]int{}
	for id, term := range []string{"pa", "pb", "pc"} {
		if err := fs.WriteFile(fmt.Sprintf("f%d.txt", id), []byte(term)); err != nil {
			t.Fatal(err)
		}
		perShard[shard.ShardFor(postings.FileID(id), 3)]++
	}
	limit := slices.Max(slices.Collect(maps.Values(perShard)))
	if limit == 3 {
		t.Fatal("fixture: all three files route to one shard of three")
	}
	q := Query{Text: "p*", MaxPrefixTerms: limit}
	for shards, fails := range map[int]bool{1: true, 3: false} {
		cat, err := IndexFS(fs, ".", Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cat.Query(context.Background(), q)
		if fails != errors.Is(err, ErrPrefixTooBroad) || !fails && resp.Total != 3 {
			t.Errorf("%d shards, cap %d: %+v, %v; want prefix_too_broad %v", shards, limit, resp, err, fails)
		}
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
		{"coordination", 0, false},
		{"tf", RankTF, true},
		{"bm25", RankBM25, true},
		{"BM25", RankBM25, true},
		{"0", 0, false},
		{"1", 0, false},
		{"2", 0, false},
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
