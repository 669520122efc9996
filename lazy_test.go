package desksearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

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

	cat, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if n, _ := lazyDecodes(cat); n != 0 {
		t.Fatalf("OpenDir decoded %d posting blocks, want 0", n)
	}
	// Statistics come from the dictionaries alone.
	if s := cat.Stats(); s.Postings == 0 {
		t.Fatalf("Stats = %+v, want postings", s)
	}
	if n, _ := lazyDecodes(cat); n != 0 {
		t.Fatalf("Stats decoded %d posting blocks, want 0", n)
	}
}

// TestQueryAfterCloseFails: a query over a closed lazy catalog fails with
// a typed error naming the closed read, never an empty page, and never
// reads the unmapped segments.
func TestQueryAfterCloseFails(t *testing.T) {
	built, err := IndexFS(corpusFS(t, 40), ".", Options{Shards: 2, Positions: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, text := range []string{"report", "-report", `"annual report"`} {
		if resp, err := cat.Query(ctx, Query{Text: text}); err != nil || resp.Total == 0 {
			t.Fatalf("%q before Close answered (%v, %v), want hits", text, resp, err)
		}
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"report", "-report", `"annual report"`} {
		resp, err := cat.Query(ctx, Query{Text: text})
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Code != CodeSegmentCorrupt || !strings.Contains(err.Error(), "read of closed segment") {
			t.Fatalf("%q after Close answered (%v, %v), want a QueryError naming the closed read", text, resp, err)
		}
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
	// A lone term, an OR and an AND with a NOT leg stream their terms as
	// root legs too.
	for _, text := range []string{"milk", "milk OR report", "milk -report"} {
		if n := run(text, Query{Text: text, Limit: 10}); n != 0 {
			t.Errorf("%q decoded %d blocks, want 0", text, n)
		}
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

// TestOpenDirRefusesSegmentNewerThanManifest: a directory whose manifest
// predates one of its segments — saved, updated with one added file,
// saved back, and the old manifest put back — holds a FileID past the
// manifest's file table. OpenDir refuses it at open, naming the segment
// and the ID, rather than opening it for a query to panic on; LoadDir
// refuses it through the manifest's whole-file checksums.
func TestOpenDirRefusesSegmentNewerThanManifest(t *testing.T) {
	fs := corpusFS(t, 20)
	cat, err := IndexFS(fs, ".", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.dsix")
	old, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("dir0/added.txt", []byte("quarterly report added")); err != nil {
		t.Fatal(err)
	}
	if st, err := cat.Update(fs, "."); err != nil || st.Added != 1 {
		t.Fatalf("Update = %+v, %v; want one added file", st, err)
	}
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, old, 0o644); err != nil {
		t.Fatal(err)
	}

	if lazy, err := OpenDir(dir); err == nil {
		lazy.Close()
		t.Fatal("OpenDir opened a segment holding a file past its manifest's table")
	} else if !strings.Contains(err.Error(), "file ID 20 is past the manifest's file table (20 files)") || !strings.Contains(err.Error(), ".dsix") {
		t.Fatalf("OpenDir: %v; want the segment and the ID named", err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("LoadDir: %v; want a checksum mismatch", err)
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

// TestSubsetSwapToWholeCatalog: a worker's one-shard subset swapped for a
// whole four-shard catalog takes the new catalog's shard numbers with it,
// so a NOT query answers every file of the new catalog once — where a rule
// kept from the subset once indexed one universe for four partitions.
func TestSubsetSwapToWholeCatalog(t *testing.T) {
	built, err := IndexFS(corpusFS(t, 40), ".", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenDirShards(dir, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	queryAll(t, cat, "-report") // fill the subset's universe cache

	fs := demoFS(t)
	if err := fs.WriteFile("misc/empty.txt", nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := IndexFS(fs, ".", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cat.Swap(fresh)
	if got := fmt.Sprint(cat.PartitionIDs()); got != "[0 1 2 3]" {
		t.Fatalf("PartitionIDs after swap = %s, want [0 1 2 3]", got)
	}
	hits := queryAll(t, cat, "-zebra")
	if len(hits) != 9 || !slices.Contains(paths(hits), "misc/empty.txt") {
		t.Fatalf("-zebra after swap = %v, want all 9 files", paths(hits))
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
