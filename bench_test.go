package desksearch

// The paper's evaluation, run live on the machine running the benchmark:
//
//   - BenchmarkLiveTuples — Tables 2–4 analogue with real goroutines, over
//     the one design kept (Implementation 3)
//
// and the ablation for the design knob that remains live:
//
//   - BenchmarkAblationParallelSearch — multi-index parallel query (§5, future work)
//
// The designs the paper measured and rejected (a shared locked index,
// replicas joined at the end, other dealing rules, work stealing,
// per-term insertion, a concurrent Stage 1) are not kept, so they have no
// ablation; docs/ARCHITECTURE.md records their last measurement.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"desksearch/internal/core"
	"desksearch/internal/corpus"
	"desksearch/internal/index"
	"desksearch/internal/search"
	"desksearch/internal/shard"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

// ---- shared fixtures ----

var (
	liveOnce sync.Once
	liveFS   *vfs.MemFS
)

// liveCorpus returns a 1/128-scale corpus (≈400 files, ≈7 MB) in memory for
// live goroutine benchmarks.
func liveCorpus(b *testing.B) *vfs.MemFS {
	b.Helper()
	liveOnce.Do(func() {
		fs := vfs.NewMemFS()
		if _, err := corpus.Generate(corpus.PaperSpec().Scale(1.0/128), fs); err != nil {
			panic(err)
		}
		liveFS = fs
	})
	return liveFS
}

// ---- live host runs ----

// BenchmarkLiveTuples runs the sequential baseline (1, 0) and the
// parallel tuples (x, 1) and (x, 2), x one less than the CPU count but at
// least 2.
func BenchmarkLiveTuples(b *testing.B) {
	fs := liveCorpus(b)
	x := max(runtime.NumCPU()-1, 2)
	for _, cfg := range []core.Config{
		{Extractors: 1},
		{Extractors: x, Updaters: 1},
		{Extractors: x, Updaters: 2},
	} {
		b.Run(cfg.Tuple(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(fs, ".", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation A5: parallel search over replicas (§5) ----

func BenchmarkAblationParallelSearch(b *testing.B) {
	fs := liveCorpus(b)
	res, err := core.Run(fs, ".", core.Config{
		Extractors: 4, Updaters: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	one, err := core.Run(fs, ".", core.Config{Extractors: 4, Updaters: 1})
	if err != nil {
		b.Fatal(err)
	}

	vocab := corpus.BuildVocabulary(corpus.PaperSpec().Scale(1.0 / 128))
	query := search.MustParse(fmt.Sprintf("%s OR %s OR (%s -%s)", vocab[0], vocab[1], vocab[2], vocab[3]))

	singleEngine := search.NewEngine(one.Files, index.Partitions(one.Indexes())...)
	multiPar := search.NewEngine(res.Files, index.Partitions(res.Indexes())...)

	// Warm the per-engine universes outside the timed region.
	engineSearch(b, singleEngine, query)
	engineSearch(b, multiPar, query)

	b.Run("joined-single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engineSearch(b, singleEngine, query)
		}
	})
	b.Run("replicas-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engineSearch(b, multiPar, query)
		}
	})
}

// engineSearch runs query on e with the zero controls: every hit,
// coordination ranking.
func engineSearch(b *testing.B, e *search.Engine, query *search.Query) {
	if _, err := e.Query(context.Background(), search.Request{Query: query}); err != nil {
		b.Fatal(err)
	}
}

// ---- sharded fan-out search and codec ----

// shardCounts is the sweep the sharding benchmarks compare.
var shardCounts = []int{1, 2, 4, 8}

// buildShards builds an n-shard set over the live corpus.
func buildShards(b *testing.B, n int) *core.Result {
	b.Helper()
	res, err := core.Run(liveCorpus(b), ".", core.Config{
		Extractors: 4, Updaters: 4, Shards: n,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkShardedBuild measures end-to-end index construction into a
// 4-shard catalog: a fixed (4, 4) tuple, one owning updater per shard,
// and the path users get — the facade with its machine-sized default
// tuple, positions on. The gated number is bench/'s build_mb_per_s.
func BenchmarkShardedBuild(b *testing.B) {
	fs := liveCorpus(b)
	b.Run("shards-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(fs, ".", core.Config{
				Extractors: 4, Updaters: 4, Shards: 4,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("facade-default", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := IndexFS(fs, ".", Options{Positions: true, Shards: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedSearch measures fan-out query latency across shard
// counts: 1 shard is the single-index baseline the fan-out overhead and
// speed-up are judged against.
func BenchmarkShardedSearch(b *testing.B) {
	vocab := corpus.BuildVocabulary(corpus.PaperSpec().Scale(1.0 / 128))
	query := search.MustParse(fmt.Sprintf("%s OR %s OR (%s -%s)", vocab[0], vocab[1], vocab[2], vocab[3]))
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			res := buildShards(b, n)
			eng := search.NewEngine(res.Files, index.Partitions(res.Indexes())...)
			engineSearch(b, eng, query) // warm the per-shard universes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engineSearch(b, eng, query)
			}
		})
	}
}

// BenchmarkQueryFanOut measures the fan-out's own share of a query: a
// one-term page of ten over a 4-partition heap catalog, where each
// partition's evaluation is short enough that starting its work on the
// fan-out's workers is a visible part of the whole. allocs/op counts
// what the fan-out adds per query. The one-caller arm is a desktop
// user's queries, one at a time; the parallel arm is a loaded server's,
// GOMAXPROCS callers whose fan-outs overlap and already fill the
// processors.
func BenchmarkQueryFanOut(b *testing.B) {
	cat, err := IndexFS(liveCorpus(b), ".", Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	vocab := corpus.BuildVocabulary(corpus.PaperSpec().Scale(1.0 / 128))
	req := Query{Text: vocab[len(vocab)/8], Limit: 10}
	ctx := context.Background()
	if _, err := cat.Query(ctx, req); err != nil { // warm the universes
		b.Fatal(err)
	}
	b.Run("callers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("callers=GOMAXPROCS", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := cat.Query(ctx, req); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkShardedSave measures parallel segment writing (one fan-out task
// per shard) across shard counts.
func BenchmarkShardedSave(b *testing.B) {
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			res := buildShards(b, n)
			dir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := shard.SaveDir(dir, res.Set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedLoad measures parallel segment loading and checksum
// verification across shard counts.
func BenchmarkShardedLoad(b *testing.B) {
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			res := buildShards(b, n)
			dir := b.TempDir()
			if err := shard.SaveDir(dir, res.Set); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shard.LoadDir(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- cold open: eager materialize vs lazy dictionary-only ----

// coldDir saves the top-k corpus' 4-shard catalog to disk once and keeps
// the directory for the process lifetime (not b.TempDir: -count reruns
// the benchmark after that cleanup would have deleted the fixture).
var (
	coldOnce sync.Once
	coldDir  string
)

func coldOpenDir(b *testing.B) string {
	b.Helper()
	coldOnce.Do(func() {
		cat, _ := topkCatalog(b)
		dir, err := os.MkdirTemp("", "desksearch-coldopen-")
		if err != nil {
			panic(err)
		}
		if err := cat.SaveDir(dir); err != nil {
			panic(err)
		}
		coldDir = dir
	})
	return coldDir
}

// BenchmarkColdOpen measures catalog cold start from a saved 4-shard
// directory: LoadDir decodes and materializes every posting list up
// front and is timed with the first query after it, which fills the NOT
// universes from the partitions' kept document sets; OpenDir reads only
// the term dictionaries and maps posting data for on-demand decode. The
// gap is the lazy backend's reason to exist; bench/ gates it as open_ms of
// query-lazy against query-heap.
func BenchmarkColdOpen(b *testing.B) {
	dir := coldOpenDir(b)
	_, q := topkCatalog(b)
	ctx := context.Background()
	b.Run("load-dir", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cat, err := LoadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cat.Query(ctx, Query{Text: q, Limit: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open-dir", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cat, err := OpenDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := cat.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- incremental update vs full rebuild ----

// churnLevels is the churn sweep for the incremental-maintenance benches:
// the fraction of the corpus rewritten between updates. The acceptance
// criterion is that Catalog.Update beats a full rebuild at ≤10 %.
var churnLevels = []int{1, 10, 50}

// churnCorpus returns a private corpus (the benches mutate it) plus its
// file list.
func churnCorpus(b *testing.B) (*vfs.MemFS, []string) {
	b.Helper()
	fs := vfs.NewMemFS()
	if _, err := corpus.Generate(corpus.PaperSpec().Scale(1.0/128), fs); err != nil {
		b.Fatal(err)
	}
	refs, err := core.ListFiles(fs, ".")
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, len(refs))
	for i, r := range refs {
		paths[i] = r.Path
	}
	return fs, paths
}

// churn rewrites k files, rotating through the corpus so successive rounds
// touch different files, with round-stamped content so every write is a
// real change.
func churn(b *testing.B, fs *vfs.MemFS, paths []string, k, round int) {
	b.Helper()
	for j := 0; j < k; j++ {
		p := paths[(round*k+j)%len(paths)]
		content := fmt.Sprintf("churned revision %d of %s with fresh terms rev%d edit%d", round, p, round, j)
		if err := fs.WriteFile(p, []byte(content)); err != nil {
			b.Fatal(err)
		}
	}
}

var churnOptions = Options{Extractors: 4, Updaters: 2, Shards: 4}

// BenchmarkIncrementalUpdate measures Catalog.Update absorbing a churned
// tree in place: diff, parallel re-extraction of only the changed files,
// and a commit at each changed file's owning partition. one-file-then-query
// times a one-file Update together with the query after it, which refills
// the NOT universes the update dropped; one-file-positional times a
// one-file Update of a positional 4-shard catalog, where a modified file's
// postings land mid-list and move every later posting's positions.
func BenchmarkIncrementalUpdate(b *testing.B) {
	for _, pct := range churnLevels {
		b.Run(fmt.Sprintf("churn-%d", pct), func(b *testing.B) {
			b.ReportAllocs()
			fs, paths := churnCorpus(b)
			cat, err := IndexFS(fs, ".", churnOptions)
			if err != nil {
				b.Fatal(err)
			}
			k := len(paths) * pct / 100
			if k < 1 {
				k = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churn(b, fs, paths, k, i)
				b.StartTimer()
				if _, err := cat.Update(fs, "."); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("one-file-then-query", func(b *testing.B) {
		b.ReportAllocs()
		fs, paths := churnCorpus(b)
		cat, err := IndexFS(fs, ".", churnOptions)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		q := Query{Text: "churned revision", Limit: 10}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn(b, fs, paths, 1, i)
			b.StartTimer()
			if _, err := cat.Update(fs, "."); err != nil {
				b.Fatal(err)
			}
			if _, err := cat.Query(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-file-positional", func(b *testing.B) {
		b.ReportAllocs()
		fs, paths := churnCorpus(b)
		cat, err := IndexFS(fs, ".", Options{Positions: true, Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn(b, fs, paths, 1, i)
			b.StartTimer()
			if _, err := cat.Update(fs, "."); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFullRebuild is the baseline the incremental path must beat at
// low churn: the batch pipeline re-indexing the whole churned tree.
func BenchmarkFullRebuild(b *testing.B) {
	for _, pct := range churnLevels {
		b.Run(fmt.Sprintf("churn-%d", pct), func(b *testing.B) {
			fs, paths := churnCorpus(b)
			if _, err := IndexFS(fs, ".", churnOptions); err != nil {
				b.Fatal(err)
			}
			k := len(paths) * pct / 100
			if k < 1 {
				k = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churn(b, fs, paths, k, i)
				b.StartTimer()
				if _, err := IndexFS(fs, ".", churnOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalSaveDir measures persisting an update back into an
// existing catalog directory, where only dirty segments rewrite, against
// the all-segments write a fresh save pays.
func BenchmarkIncrementalSaveDir(b *testing.B) {
	fs, paths := churnCorpus(b)
	cat, err := IndexFS(fs, ".", churnOptions)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := cat.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	k := len(paths) / 100
	if k < 1 {
		k = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(b, fs, paths, k, i)
		if _, err := cat.Update(fs, "."); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cat.SaveDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- top-k query retrieval ----

var (
	topkOnce sync.Once
	topkCat  *Catalog
	topkQ    string
)

// topkCatalog returns a shared 4-shard catalog over a large corpus
// (≈1600 files) plus a broad OR query matching most of it — the workload
// where bounded top-k retrieval should beat materializing and sorting
// every hit.
func topkCatalog(b testing.TB) (*Catalog, string) {
	b.Helper()
	topkOnce.Do(func() {
		fs := vfs.NewMemFS()
		if _, err := corpus.Generate(corpus.PaperSpec().Scale(1.0/32), fs); err != nil {
			panic(err)
		}
		cat, err := IndexFS(fs, ".", Options{
			Extractors: 4, Updaters: 4, Shards: 4,
		})
		if err != nil {
			panic(err)
		}
		vocab := corpus.BuildVocabulary(corpus.PaperSpec().Scale(1.0 / 32))
		topkCat = cat
		topkQ = fmt.Sprintf("%s OR %s OR %s OR %s", vocab[0], vocab[1], vocab[2], vocab[3])
	})
	return topkCat, topkQ
}

// BenchmarkTopKQuery compares unlimited retrieval (every partition sorts
// all its candidates and every hit is named) against bounded top-k
// selection at page sizes 10 and 100. The hits-per-query metric reports
// how much work the full sort does per request, and allocs/op what the
// selection path allocates.
func BenchmarkTopKQuery(b *testing.B) {
	cat, q := topkCatalog(b)
	ctx := context.Background()
	expr, err := ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := cat.Query(ctx, Query{Expr: expr, Limit: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-sort", func(b *testing.B) {
		b.ReportAllocs()
		req := Query{Expr: expr} // no limit: every partition sorts its full hit list
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(warm.Total), "hits/query")
	})
	for _, limit := range []int{10, 100} {
		b.Run(fmt.Sprintf("limit-%d", limit), func(b *testing.B) {
			b.ReportAllocs()
			req := Query{Expr: expr, Limit: limit}
			for i := 0; i < b.N; i++ {
				if _, err := cat.Query(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("limit-10-tf", func(b *testing.B) {
		b.ReportAllocs()
		req := Query{Expr: expr, Limit: 10, Ranking: RankTF}
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBM25Query measures BM25-ranked retrieval on the top-k corpus —
// the per-request global statistics pass (df aggregation across shards,
// IDFs, avgdl) plus the per-document float scoring — against the same
// query coordination-ranked (the limit-10 arm of BenchmarkTopKQuery).
func BenchmarkBM25Query(b *testing.B) {
	cat, q := topkCatalog(b)
	ctx := context.Background()
	expr, err := ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cat.Query(ctx, Query{Expr: expr, Limit: 1, Ranking: RankBM25}); err != nil {
		b.Fatal(err) // warm the universes
	}
	b.Run("limit-10", func(b *testing.B) {
		b.ReportAllocs()
		req := Query{Expr: expr, Limit: 10, Ranking: RankBM25}
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-sort", func(b *testing.B) {
		b.ReportAllocs()
		req := Query{Expr: expr, Ranking: RankBM25}
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuggest measures autocomplete: one merge of the partitions'
// dictionary cursors over the prefix's range, keeping the n best terms,
// for a one-letter (broad), a two-letter — the bench suggest op's shape —
// and a whole-word (narrow) prefix, on the catalog as built (heap) and on
// the same catalog saved and opened in place (lazy), whose dictionary
// cursor copies out each term it yields.
func BenchmarkSuggest(b *testing.B) {
	built, _ := topkCatalog(b)
	dir := b.TempDir()
	if err := built.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	lazy, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer lazy.Close()
	ctx := context.Background()
	vocab := corpus.BuildVocabulary(corpus.PaperSpec().Scale(1.0 / 32))
	long := vocab[0]
	for _, c := range []struct {
		name string
		cat  *Catalog
	}{{"heap", built}, {"lazy", lazy}} {
		for _, tc := range []struct{ name, prefix string }{
			{"short-prefix", long[:1]},
			{"two-letter-prefix", long[:min(2, len(long))]},
			{"long-prefix", long},
		} {
			b.Run(c.name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.cat.Suggest(ctx, tc.prefix, 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSnippets measures what snippet assembly adds to a positional
// query: the same request with and without the per-hit window
// reconstruction (anchor scan, dictionary pass, highlight spans), on the
// catalog as built, on the same catalog saved and loaded back, whose
// lists LoadDir lays out in dictionary order, and on the saved directory
// opened lazily, whose window pass reads every posting block in place.
// The request is the bench's snippet op: a BM25 page of ten over several
// words, so the page's files spread over the ID range and each block's
// window pass runs as it does for a served page, not only over the
// lowest IDs a count-ranked page of one word would hold.
func BenchmarkSnippets(b *testing.B) {
	built, _ := phraseCatalog(b)
	dir := b.TempDir()
	if err := built.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	lazy, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer lazy.Close()
	ctx := context.Background()
	vocab := corpus.BuildVocabulary(corpus.PaperSpec().Scale(1.0 / 64))
	words := strings.Join([]string{vocab[1], vocab[4], vocab[9]}, " ")
	for _, c := range []struct {
		name string
		cat  *Catalog
	}{{"built", built}, {"loaded", loaded}, {"lazy", lazy}} {
		warm, err := c.cat.Query(ctx, Query{Text: words, Limit: 1}) // warm the universes
		if err != nil {
			b.Fatal(err)
		}
		if warm.Total < 10 {
			b.Fatalf("%q matches %d files, fewer than a page", words, warm.Total)
		}
		b.Run(c.name+"/with-snippets", func(b *testing.B) {
			b.ReportAllocs()
			req := Query{Text: words, Limit: 10, Ranking: RankBM25, Snippets: true}
			for i := 0; i < b.N; i++ {
				if _, err := c.cat.Query(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/without", func(b *testing.B) {
			b.ReportAllocs()
			req := Query{Text: words, Limit: 10, Ranking: RankBM25}
			for i := 0; i < b.N; i++ {
				if _, err := c.cat.Query(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- positional / phrase benchmarks ----

var (
	phraseOnce sync.Once
	phraseCat  *Catalog
	phraseText string
)

// phraseCatalog builds a positional 4-shard catalog once and picks a real
// bigram out of the corpus so the phrase walk does non-trivial work.
func phraseCatalog(b *testing.B) (*Catalog, string) {
	b.Helper()
	phraseOnce.Do(func() {
		fs := vfs.NewMemFS()
		if _, err := corpus.Generate(corpus.PaperSpec().Scale(1.0/64), fs); err != nil {
			panic(err)
		}
		cat, err := IndexFS(fs, ".", Options{
			Extractors: 4, Updaters: 4,
			Shards: 4, Positions: true,
		})
		if err != nil {
			panic(err)
		}
		refs, err := core.ListFiles(fs, ".")
		if err != nil {
			panic(err)
		}
		data, err := fs.ReadFile(refs[len(refs)/2].Path)
		if err != nil {
			panic(err)
		}
		toks := tokenize.Terms(data)
		mid := len(toks) / 2
		phraseCat = cat
		phraseText = fmt.Sprintf("%q", toks[mid]+" "+toks[mid+1])
	})
	return phraseCat, phraseText
}

// BenchmarkPhraseQuery measures quoted-phrase evaluation — the
// rarest-first walk over files and positions — against the same
// catalog's plain conjunction of the phrase words (the work a phrase
// query does on top of AND is the positional part).
func BenchmarkPhraseQuery(b *testing.B) {
	cat, phrase := phraseCatalog(b)
	ctx := context.Background()
	and := strings.Trim(phrase, `"`)
	warm, err := cat.Query(ctx, Query{Text: phrase, Limit: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("phrase", func(b *testing.B) {
		req := Query{Text: phrase, Limit: 10}
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(warm.Total), "hits/query")
	})
	b.Run("and-of-words", func(b *testing.B) {
		req := Query{Text: and, Limit: 10}
		for i := 0; i < b.N; i++ {
			if _, err := cat.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPositionalBuild measures what recording positions costs the
// batch pipeline: the same corpus and thread tuple, positions off vs on.
func BenchmarkPositionalBuild(b *testing.B) {
	fs := liveCorpus(b)
	for _, positional := range []bool{false, true} {
		name := "positions-off"
		if positional {
			name = "positions-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := IndexFS(fs, ".", Options{
					Extractors: 4, Updaters: 4,
					Positions: positional,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- streaming evaluation: selective AND, OR and NOT, and WAND top-k ----

var (
	skewOnce  sync.Once
	skewEager *Catalog
	skewLazy  *Catalog
)

// skewCatalogs builds a frequency-skewed corpus — "common" in all 4000
// documents, "rare" in every 100th — as both an eager (heap) catalog
// and a lazy OpenDir catalog over its saved directory. The lazy catalog
// gets a minimal block cache so every operation pays its real decode
// cost: the blocks/op metrics below measure the algorithm, not the
// cache.
func skewCatalogs(b *testing.B) (eager, lazy *Catalog) {
	b.Helper()
	skewOnce.Do(func() {
		fs := vfs.NewMemFS()
		for i := 0; i < 4000; i++ {
			var sb strings.Builder
			for r := 0; r <= i%3; r++ {
				sb.WriteString("common ")
			}
			if i%100 == 0 {
				sb.WriteString("rare ")
			}
			fmt.Fprintf(&sb, "filler%03d tail%d", i%97, i%13)
			if err := fs.WriteFile(fmt.Sprintf("d/%04d.txt", i), []byte(sb.String())); err != nil {
				panic(err)
			}
		}
		cat, err := IndexFS(fs, ".", Options{Shards: 4})
		if err != nil {
			panic(err)
		}
		dir, err := os.MkdirTemp("", "desksearch-skew-")
		if err != nil {
			panic(err)
		}
		if err := cat.SaveDir(dir); err != nil {
			panic(err)
		}
		lz, err := OpenDir(dir, Options{BlockCacheBytes: 1})
		if err != nil {
			panic(err)
		}
		skewEager, skewLazy = cat, lz
	})
	return skewEager, skewLazy
}

// lazyBlockDecodes sums the posting-block decode counters across a lazy
// catalog's segment readers.
func lazyBlockDecodes(cat *Catalog) uint64 {
	var n uint64
	for _, r := range cat.lazy.Readers() {
		n += r.BlockDecodes()
	}
	return n
}

// benchSkewQuery runs one skewed-corpus query on the eager and lazy
// backends plus the full-lists baseline — decoding every queried term's
// entire posting list, the work the pre-streaming evaluator did per
// query — reporting blocks/op on the lazy-backend arms. The counts are
// pinned exactly by TestLazyEvaluationDecodesFewerBlocks (lazy_test.go).
func benchSkewQuery(b *testing.B, req Query, terms []string) {
	eager, lazy := skewCatalogs(b)
	ctx := context.Background()
	if _, err := eager.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	if _, err := lazy.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eager.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		start := lazyBlockDecodes(lazy)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lazy.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(lazyBlockDecodes(lazy)-start)/float64(b.N), "blocks/op")
	})
	b.Run("full-lists", func(b *testing.B) {
		readers := lazy.lazy.Readers()
		start := lazyBlockDecodes(lazy)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range readers {
				for _, term := range terms {
					r.Lookup(term)
				}
			}
		}
		b.ReportMetric(float64(lazyBlockDecodes(lazy)-start)/float64(b.N), "blocks/op")
	})
}

// BenchmarkSelectiveAND measures the streaming conjunction on the
// skewed corpus: "rare common" matches 40 of 4000 documents, so the
// galloping intersection driven by the rare term touches a fraction of
// the common term's postings — and on the lazy backend decodes no
// posting blocks at all, where materializing both lists would decode
// every touched block per query.
func BenchmarkSelectiveAND(b *testing.B) {
	benchSkewQuery(b, Query{Text: "rare common", Limit: 10}, []string{"rare", "common"})
}

// BenchmarkWANDTopK measures BM25 bounded retrieval with max-score
// skipping on the same conjunction: match enumeration streams, and
// per-scorer score ceilings let documents that provably cannot enter
// the page stop scoring early, so the lazy backend again decodes no
// blocks where full-list evaluation decodes them all.
func BenchmarkWANDTopK(b *testing.B) {
	benchSkewQuery(b, Query{Text: "rare common", Ranking: RankBM25, Limit: 10}, []string{"rare", "common"})
}

// BenchmarkSelectiveOR measures the streaming disjunction on the same
// corpus: "rare OR common" matches every document, each leg is walked once
// by the root's cursor, and the page of ten is kept as the matches stream
// by, with no union list built.
func BenchmarkSelectiveOR(b *testing.B) {
	benchSkewQuery(b, Query{Text: "rare OR common", Limit: 10}, []string{"rare", "common"})
}

// BenchmarkSelectiveNOT measures an AND with a NOT leg: "common -rare"
// drives from the common term and passes over each candidate the rare
// term's exclusion leg lands on, with no complement list built.
func BenchmarkSelectiveNOT(b *testing.B) {
	benchSkewQuery(b, Query{Text: "common -rare", Limit: 10}, []string{"rare", "common"})
}

// ---- facade benchmark ----

// BenchmarkIndexFS times a whole build through the facade: "auto" with
// the default options, and "positions-4shards" in the shape the bench/
// module builds its catalogs (Positions on, four shards), where Stage 2
// and Stage 3 carry every position.
func BenchmarkIndexFS(b *testing.B) {
	fs := liveCorpus(b)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"auto", Options{}},
		{"positions-4shards", Options{Positions: true, Shards: 4}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := IndexFS(fs, ".", bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
