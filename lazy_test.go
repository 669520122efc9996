package desksearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"desksearch/internal/shard"
	"desksearch/internal/vfs"
)

// corpusFS generates a deterministic synthetic corpus big enough to give
// prefix expansion, BM25 statistics, and phrase evaluation real work.
func corpusFS(t testing.TB, nFiles int) *vfs.MemFS {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vocab := []string{
		"report", "reporting", "reported", "quarterly", "annual", "draft",
		"final", "review", "milk", "flour", "pancake", "allergy", "budget",
		"forecast", "revenue", "index", "search", "parallel", "thread",
	}
	fs := vfs.NewMemFS()
	for i := 0; i < nFiles; i++ {
		var words []string
		n := 5 + rng.Intn(40)
		for w := 0; w < n; w++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		if i%7 == 0 {
			words = append(words, "annual", "report") // phrase material
		}
		name := fmt.Sprintf("dir%d/file%03d.txt", i%5, i)
		if err := fs.WriteFile(name, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// equalResponses requires r1 and r2 to agree bit-for-bit where it matters:
// paths, scores under math.Float64bits, matched terms, totals, and
// snippets. Partition timings are excluded (wall-clock) but partition
// match counts must agree.
func equalResponses(t *testing.T, label string, r1, r2 *Response) {
	t.Helper()
	if r1.Total != r2.Total {
		t.Fatalf("%s: Total %d vs %d", label, r1.Total, r2.Total)
	}
	if len(r1.Hits) != len(r2.Hits) {
		t.Fatalf("%s: %d vs %d hits", label, len(r1.Hits), len(r2.Hits))
	}
	for i := range r1.Hits {
		h1, h2 := r1.Hits[i], r2.Hits[i]
		if h1.Path != h2.Path {
			t.Fatalf("%s: hit %d path %q vs %q", label, i, h1.Path, h2.Path)
		}
		if math.Float64bits(h1.Score) != math.Float64bits(h2.Score) {
			t.Fatalf("%s: hit %d (%s) score bits %x vs %x (%v vs %v)",
				label, i, h1.Path, math.Float64bits(h1.Score), math.Float64bits(h2.Score), h1.Score, h2.Score)
		}
		if fmt.Sprint(h1.Terms) != fmt.Sprint(h2.Terms) {
			t.Fatalf("%s: hit %d terms %v vs %v", label, i, h1.Terms, h2.Terms)
		}
		s1, s2 := h1.Snippet, h2.Snippet
		if (s1 == nil) != (s2 == nil) {
			t.Fatalf("%s: hit %d snippet presence %v vs %v", label, i, s1 != nil, s2 != nil)
		}
		if s1 != nil && (s1.Text != s2.Text || fmt.Sprint(s1.Highlights) != fmt.Sprint(s2.Highlights)) {
			t.Fatalf("%s: hit %d snippet %+v vs %+v", label, i, s1, s2)
		}
	}
	for i := range r1.Partitions {
		if r1.Partitions[i].Matched != r2.Partitions[i].Matched {
			t.Fatalf("%s: partition %d matched %d vs %d",
				label, i, r1.Partitions[i].Matched, r2.Partitions[i].Matched)
		}
	}
}

// TestLazyBackendEquality is the refactor's property test: every query
// shape, with and without snippets, against heap-loaded and lazily opened
// views of the same saved catalog, must answer identically down to the
// score bits — across catalogs saved fresh, sharded, and positional. One
// lazy view has room for every block; the other's cache holds a handful,
// so the same stream evicts, re-decodes and upgrades counts-only entries
// to full ones under it, and must not answer differently for that.
func TestLazyBackendEquality(t *testing.T) {
	queries := []Query{
		{Text: "report"},
		{Text: "report", Ranking: RankBM25, Limit: 10},
		{Text: "quarterly report -draft"},
		{Text: "quarterly report -draft", Ranking: RankTF, Limit: 10},
		{Text: "milk OR flour", Ranking: RankTF},
		{Text: "milk OR flour OR repor*", Ranking: RankBM25, Limit: 12},
		{Text: "-draft", Limit: 10},
		{Text: "repor*", Ranking: RankBM25, Limit: 25},
		{Text: "repor*", Ranking: RankTF},
		{Text: "(annual OR quarterly) report", Ranking: RankBM25, Limit: 10, Offset: 5},
		{Text: `"annual report"`, Ranking: RankBM25, Limit: 20},
		{Text: `"annual report" -flour`, Ranking: RankCount},
		{Text: `"annual report" OR pancake`, Ranking: RankTF, Limit: 10},
		{Text: "report", PathPrefix: "dir2/", Ranking: RankBM25, Limit: 50},
		{Text: "rev* forecast", Ranking: RankBM25, Limit: 15},
		{Text: "report -nonexistentterm", Limit: 30, Ranking: RankTF},
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"single", 0},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := corpusFS(t, 120)
			opt := Options{Positions: true, Shards: tc.shards}
			built, err := IndexFS(fs, ".", opt)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := built.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			heap, err := LoadDir(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := OpenDir(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()
			if !lazy.Lazy() || heap.Lazy() {
				t.Fatalf("Lazy() = %v/%v, want true/false", lazy.Lazy(), heap.Lazy())
			}
			const tightBudget = 8 << 10
			tightOpt := opt
			tightOpt.BlockCacheBytes = tightBudget
			tight, err := OpenDir(dir, tightOpt)
			if err != nil {
				t.Fatal(err)
			}
			defer tight.Close()

			// Two rounds: the second meets what the first left in the
			// caches — full entries where it wants counts, counts-only
			// entries where it wants positions, and under the tight budget
			// mostly neither.
			for round := 0; round < 2; round++ {
				for _, q := range queries {
					for _, snippets := range []bool{false, true} {
						if snippets && q.Limit == 0 {
							continue // snippets need a page
						}
						q.Snippets = snippets
						label := fmt.Sprintf("round %d %q rank=%s snippets=%v", round, q.Text, q.Ranking, snippets)
						rh, err := heap.Query(context.Background(), q)
						if err != nil {
							t.Fatalf("%s heap: %v", label, err)
						}
						for _, view := range []struct {
							name string
							cat  *Catalog
						}{{"lazy", lazy}, {"tight", tight}} {
							rl, err := view.cat.Query(context.Background(), q)
							if err != nil {
								t.Fatalf("%s %s: %v", label, view.name, err)
							}
							equalResponses(t, label+" "+view.name, rh, rl)
						}
					}
				}
			}
			roomyBlocks, roomyPositions := lazyDecodes(lazy)
			tightBlocks, tightPositions := lazyDecodes(tight)
			if tightBlocks <= roomyBlocks || tightPositions <= roomyPositions {
				t.Fatalf("the %d-byte cache decoded %d blocks (%d with positions), the roomy one %d (%d): nothing was evicted",
					tightBudget, tightBlocks, tightPositions, roomyBlocks, roomyPositions)
			}
			if roomyPositions == 0 || roomyPositions == roomyBlocks {
				t.Fatalf("roomy cache: %d of %d decodes read positions; the stream should exercise both tiers", roomyPositions, roomyBlocks)
			}
			if _, used, _ := tight.BlockCache(); used > tightBudget {
				t.Fatalf("tight cache holds %d bytes, budget %d", used, tightBudget)
			}

			// Suggestions are dictionary walks — must agree exactly too.
			sh, err := heap.Suggest(context.Background(), "repor", 10)
			if err != nil {
				t.Fatal(err)
			}
			sl, err := lazy.Suggest(context.Background(), "repor", 10)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(sh) != fmt.Sprint(sl) {
				t.Fatalf("Suggest: heap %v vs lazy %v", sh, sl)
			}

			// Catalog statistics agree (terms exactly; postings exactly).
			hs, ls := heap.Stats(), lazy.Stats()
			if hs.Files != ls.Files || hs.Terms != ls.Terms || hs.Postings != ls.Postings {
				t.Fatalf("Stats: heap %+v vs lazy %+v", hs, ls)
			}
			if heap.Shards() != lazy.Shards() || heap.Indices() != lazy.Indices() {
				t.Fatalf("shape: heap %d shards/%d indices vs lazy %d/%d",
					heap.Shards(), heap.Indices(), lazy.Shards(), lazy.Indices())
			}
			if fmt.Sprint(heap.TopTerms(8)) != fmt.Sprint(lazy.TopTerms(8)) {
				t.Fatalf("TopTerms: heap %v vs lazy %v", heap.TopTerms(8), lazy.TopTerms(8))
			}
		})
	}
}

// lazyDecodes sums the block-decode counters of a lazy catalog's readers:
// every decode, and those that read a positions section.
func lazyDecodes(c *Catalog) (blocks, positions uint64) {
	for _, r := range c.lazy.Readers() {
		blocks += r.BlockDecodes()
		positions += r.PositionDecodes()
	}
	return blocks, positions
}

// TestOpenDirIsLazy pins the cold-start contract at the API level: opening
// a directory decodes zero posting blocks; the first query touches only
// the blocks it needs.
func TestOpenDirIsLazy(t *testing.T) {
	fs := corpusFS(t, 80)
	built, err := IndexFS(fs, ".", Options{Shards: 3, Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	set, err := shard.OpenDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	decodes := func() (n uint64) {
		for _, r := range set.Readers() {
			n += r.BlockDecodes()
		}
		return
	}
	if n := decodes(); n != 0 {
		t.Fatalf("OpenDir decoded %d posting blocks, want 0", n)
	}
	// Statistics come from the dictionaries alone.
	set.Stats()
	if n := decodes(); n != 0 {
		t.Fatalf("Stats decoded %d posting blocks, want 0", n)
	}
}

// TestLazyEvaluationDecodesFewerBlocks pins the streaming evaluator's
// cost claim: a selective AND and a BM25 top-k on a lazy catalog must
// decode strictly fewer posting blocks than the full traversal the
// pre-iterator evaluator paid (one block per query term per shard that
// holds it) — and, as implemented, exactly zero: boolean intersection
// rides SeekGE over the skip tables and scoring streams the frequency
// sections, so no posting block is ever materialized.
func TestLazyEvaluationDecodesFewerBlocks(t *testing.T) {
	fs := corpusFS(t, 200)
	built, err := IndexFS(fs, ".", Options{Shards: 3, Positions: true})
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
	defer cat.Close()
	readers := cat.lazy.Readers()
	decodes := func() (n uint64) {
		for _, r := range readers {
			n += r.BlockDecodes()
		}
		return
	}

	// The eager full-list path's cost, computed from the dictionaries:
	// Lookup-driven evaluation decodes each query term's block on every
	// shard that holds the term.
	terms := []string{"milk", "report"}
	var full uint64
	for _, term := range terms {
		for _, r := range readers {
			if r.DocFreq(term) > 0 {
				full++
			}
		}
	}
	if full == 0 {
		t.Fatal("corpus holds none of the query terms; the baseline is vacuous")
	}

	run := func(label string, q Query) uint64 {
		t.Helper()
		before := decodes()
		if _, err := cat.Query(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return decodes() - before
	}
	andCost := run("selective AND", Query{Text: "milk report", Limit: 10})
	wandCost := run("WAND top-k", Query{Text: "milk report", Ranking: RankBM25, Limit: 10})

	if andCost >= full {
		t.Errorf("selective AND decoded %d blocks, want < %d (full traversal)", andCost, full)
	}
	if wandCost >= full {
		t.Errorf("BM25 top-k decoded %d blocks, want < %d (full traversal)", wandCost, full)
	}
	if andCost != 0 || wandCost != 0 {
		t.Errorf("streaming evaluation decoded %d (AND) / %d (BM25) blocks, want 0: boolean and scoring paths must not materialize posting lists", andCost, wandCost)
	}
}

func TestLazyCatalogIsReadOnly(t *testing.T) {
	fs := corpusFS(t, 20)
	built, err := IndexFS(fs, ".", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	if err := cat.SaveDir(t.TempDir()); !errors.Is(err, ErrReadOnly) {
		t.Errorf("SaveDir = %v, want ErrReadOnly", err)
	}
	if _, err := cat.Update(fs, "."); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Update = %v, want ErrReadOnly", err)
	}
	cs, err := cat.Diff(fs, ".") // Diff is read-only and keeps working
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if _, err := cat.Apply(fs, cs); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Apply = %v, want ErrReadOnly", err)
	}
}

// TestLazySwap exercises dsearchd's full-reload path on a lazy catalog:
// swapping in a fresh heap catalog must retire the mappings and serve the
// new contents.
func TestLazySwap(t *testing.T) {
	fs := corpusFS(t, 40)
	built, err := IndexFS(fs, ".", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	gen := cat.Generation()

	fresh, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat.Swap(fresh)
	if cat.Lazy() {
		t.Fatal("catalog still lazy after swapping in a heap catalog")
	}
	if cat.Generation() == gen {
		t.Fatal("Swap did not advance the generation")
	}
	hits := queryAll(t, cat, "pancakes")
	if len(hits) != 1 || hits[0].Path != "misc/recipe.txt" {
		t.Fatalf("post-swap query = %v", hits)
	}
}

// TestLazyQuerySwapRace hammers concurrent queries, suggestions, and stats
// against Swap and Close on a segment-backed engine — the race-detector
// test for the lazy read path (run under -race in CI).
func TestLazyQuerySwapRace(t *testing.T) {
	fs := corpusFS(t, 60)
	built, err := IndexFS(fs, ".", Options{Shards: 3, Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := []string{"report", "repor*", `"annual report"`, "milk OR flour -draft"}
			for i := 0; i < rounds; i++ {
				q := Query{Text: qs[(g+i)%len(qs)], Ranking: RankBM25, Limit: 10, Snippets: true}
				if _, err := cat.Query(context.Background(), q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if _, err := cat.Suggest(context.Background(), "re", 5); err != nil {
					t.Errorf("suggest: %v", err)
					return
				}
				cat.PartitionBytes()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			replacement, err := OpenDir(dir)
			if err != nil {
				t.Errorf("reopen: %v", err)
				return
			}
			cat.Swap(replacement)
		}
	}()
	wg.Wait()
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
}
