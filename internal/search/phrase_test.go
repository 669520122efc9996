package search

import (
	"errors"
	"slices"
	"testing"

	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/vfs"
)

func TestParsePhrase(t *testing.T) {
	for text, want := range map[string]string{
		`"annual report"`:          `"annual report"`,
		`"Annual-Report!"`:         `"annual report"`,
		`"annual report" -draft`:   `("annual report" AND (NOT draft))`,
		`cat "annual report"`:      `(cat AND "annual report")`,
		`"annual report" OR draft`: `("annual report" OR draft)`,
		`"cat"`:                    `cat`, // one-word phrase collapses
		`("a b") c`:                `("a b" AND c)`,
	} {
		q, err := Parse(text)
		if err != nil {
			t.Errorf("%s: %v", text, err)
			continue
		}
		if q.String() != want {
			t.Errorf("%s → %s, want %s", text, q.String(), want)
		}
		// Canonical forms re-parse to themselves.
		again, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse %s: %v", q.String(), err)
		} else if again.String() != q.String() {
			t.Errorf("canonical form unstable: %s → %s", q.String(), again.String())
		}
	}
}

func TestParsePhraseErrors(t *testing.T) {
	for _, text := range []string{`"annual report`, `"`, `"!!!"`, `""`, `cat ""`} {
		if _, err := Parse(text); err == nil {
			t.Errorf("%q parsed without error", text)
		}
	}
}

func TestPhrasePositiveTerms(t *testing.T) {
	q := MustParse(`"annual report" cat -"bad press"`)
	want := []string{"annual", "report", "cat"}
	got := q.Terms()
	if len(got) != len(want) {
		t.Fatalf("positive terms = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positive terms = %v, want %v", got, want)
		}
	}
}

// positionalEngine indexes the given files positionally into n partitions
// (round-robin by file, mimicking replica distribution).
func positionalEngine(t *testing.T, files map[string]string, parts int) *Engine {
	t.Helper()
	fs := vfs.NewMemFS()
	table := index.NewFileTable()
	indices := newBuilders(parts, true)
	ex := extract.New(fs, extract.Options{Positions: true})
	i := 0
	for name, content := range files {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
		id := table.Add(name, int64(len(content)), 1)
		block, err := ex.File(name, id)
		if err != nil {
			t.Fatal(err)
		}
		indices[i%parts].AddBlockPositional(block.File, block.Terms, block.Ends, block.Pos)
		i++
	}
	return NewEngine(table, index.Partitions(buildAll(indices))...)
}

func phraseCorpus() map[string]string {
	return map[string]string{
		"a.txt": "the annual report was filed",
		"b.txt": "report annual mixup",
		"c.txt": "annual report draft annual report",
		"d.txt": "an annual summary, then a report",
		"e.txt": "na na na batman",
	}
}

func hitPaths(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Path
	}
	return out
}

func TestPhraseSearch(t *testing.T) {
	for _, parts := range []int{1, 3} {
		e := positionalEngine(t, phraseCorpus(), parts)
		for query, want := range map[string][]string{
			`"annual report"`:        {"a.txt", "c.txt"},
			`"annual report" -draft`: {"a.txt"},
			`"report annual"`:        {"b.txt"},
			`"na na na"`:             {"e.txt"},
			`"na na na na"`:          {},
			`"annual filed"`:         {}, // present, not adjacent
			`"missing phrase"`:       {},
			`"annual report" OR summary`: {
				"a.txt", "c.txt", "d.txt",
			},
		} {
			hits, err := searchString(e, query)
			if err != nil {
				t.Fatalf("parts=%d %s: %v", parts, query, err)
			}
			got := map[string]bool{}
			for _, p := range hitPaths(hits) {
				got[p] = true
			}
			if len(got) != len(want) {
				t.Errorf("parts=%d %s → %v, want %v", parts, query, hitPaths(hits), want)
				continue
			}
			for _, p := range want {
				if !got[p] {
					t.Errorf("parts=%d %s missing %s (got %v)", parts, query, p, hitPaths(hits))
				}
			}
		}
	}
}

func TestPhraseRepeatedWord(t *testing.T) {
	e := positionalEngine(t, map[string]string{
		"x.txt": "well well well then",
		"y.txt": "well then well",
	}, 1)
	hits, err := searchString(e, `"well well"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitPaths(hits); len(got) != 1 || got[0] != "x.txt" {
		t.Fatalf(`"well well" → %v`, got)
	}
}

func TestPhraseWithoutPositions(t *testing.T) {
	// A boolean (position-free) index answers term queries but rejects
	// phrases with ErrNoPositions instead of guessing adjacency.
	table := index.NewFileTable()
	bld := index.NewBuilder(false)
	id := table.Add("a.txt", 1, 1)
	bld.AddBlock(id, []string{"annual", "report"}, nil)
	e := NewEngine(table, bld.Index())

	if hits, err := searchString(e, "annual report"); err != nil || len(hits) != 1 {
		t.Fatalf("term query: %v, %v", hits, err)
	}
	// Every phrase query errors on a position-free partition, regardless
	// of term order, surrounding operators, or whether the phrase's terms
	// even exist — the check runs before evaluation, so AND's
	// empty-accumulator short-circuit cannot swallow it.
	for _, q := range []string{
		`"annual report"`,
		`zzz "annual report"`, // zzz matches nothing; phrase error must still win
		`"missing words"`,
		`annual OR "missing words"`,
	} {
		_, err := e.Query(t.Context(), Request{Query: MustParse(q)})
		if !errors.Is(err, ErrNoPositions) {
			t.Fatalf("%s on boolean index: err = %v, want ErrNoPositions", q, err)
		}
	}
	// On a positional index an absent phrase is simply no hits.
	pe := positionalEngine(t, map[string]string{"a.txt": "annual report"}, 1)
	if resp, err := pe.Query(t.Context(), Request{Query: MustParse(`zzz "missing words"`)}); err != nil || resp.Total != 0 {
		t.Fatalf("absent phrase on positional index: %v, %v", resp, err)
	}
}

func TestPhraseRankingUsesTermFrequencies(t *testing.T) {
	e := positionalEngine(t, phraseCorpus(), 2)
	resp, err := e.Query(t.Context(), Request{Query: MustParse(`"annual report"`), Ranking: RankTF})
	if err != nil {
		t.Fatal(err)
	}
	// c.txt contains both words twice (TF score 4), a.txt once each (2).
	if len(resp.Hits) != 2 || resp.Hits[0].Path != "c.txt" || resp.Hits[0].Score != 4 {
		t.Fatalf("TF-ranked phrase hits = %+v", resp.Hits)
	}
}

// TestPhraseWalkAllocationsConstant: a phrase whose words share every file
// but never stand next to each other walks every candidate and matches
// none, and allocates the same small number of times — the walk's scratch
// and the empty result — whether it crosses 1 000 files of one occurrence
// each or 4 000 of 16: no candidate list, no copied position run.
func TestPhraseWalkAllocationsConstant(t *testing.T) {
	allocs := func(files, reps int) float64 {
		bld := index.NewBuilder(true)
		for f := 0; f < files; f++ {
			// "x z y", reps times: x and y in every file, never adjacent.
			var xs, zs, ys []uint32
			for r := uint32(0); r < uint32(reps); r++ {
				xs, zs, ys = append(xs, 3*r), append(zs, 3*r+1), append(ys, 3*r+2)
			}
			ends := []uint32{uint32(reps), uint32(2 * reps), uint32(3 * reps)}
			bld.AddBlockPositional(postings.FileID(f), []string{"x", "z", "y"}, ends, slices.Concat(xs, zs, ys))
		}
		ix := bld.Index()
		return testing.AllocsPerRun(20, func() {
			if l, err := evalPhrase(ix, []string{"x", "y"}); err != nil || l.Len() != 0 {
				t.Fatalf(`"x y" = %v, %v; want no match`, l, err)
			}
		})
	}
	small, large := allocs(1000, 1), allocs(4000, 16)
	if small != large || large > 4 {
		t.Errorf("phrase walk allocates %.0f times over 1 000 candidates, %.0f over 4 000 × 16 positions; want the same, at most 4", small, large)
	}
}
