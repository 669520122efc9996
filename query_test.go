package desksearch

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"desksearch/internal/vfs"
)

// syntheticFS builds an n-file corpus over a small vocabulary: word w
// appears in every (w+1)-th file, repeated a file-dependent number of
// times so term frequencies differ from document frequencies.
func syntheticFS(t testing.TB, n int) *vfs.MemFS {
	t.Helper()
	fs := vfs.NewMemFS()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for w, word := range words {
			if i%(w+1) == 0 {
				for r := 0; r <= i%5; r++ {
					sb.WriteString(word)
					sb.WriteByte(' ')
				}
			}
		}
		fmt.Fprintf(&sb, "unique%04d", i)
		if err := fs.WriteFile(fmt.Sprintf("dir%d/doc%04d.txt", i%4, i), []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// shardedCatalog builds a catalog over fs with the given partition count.
func shardedCatalog(t testing.TB, fs *vfs.MemFS, shards int) *Catalog {
	t.Helper()
	cat, err := IndexFS(fs, ".", Options{
		Extractors: 4, Updaters: 2, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestTopKAllocatesLessThanFullResult is the bounded-heap claim as a count:
// on the top-k benchmark's corpus (≈1600 hits over 4 shards) a page of ten
// retains ten candidates per partition, so it allocates at most half of
// what the unlimited query does to materialize every hit. Partitions keep
// pointer-free candidates and only the returned page is named, so raising
// the limit from 10 to 40 adds about one allocation (a hit's Terms) per
// extra page hit, not one per hit retained in each partition.
func TestTopKAllocatesLessThanFullResult(t *testing.T) {
	cat, q := topkCatalog(t)
	ctx := context.Background()
	expr, err := ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []Ranking{RankCount, RankBM25} {
		allocs := func(limit int) float64 {
			req := Query{Expr: expr, Limit: limit, Ranking: rank}
			return testing.AllocsPerRun(10, func() {
				if _, err := cat.Query(ctx, req); err != nil {
					t.Fatal(err)
				}
			})
		}
		page, full := allocs(10), allocs(0)
		if page > full/2 {
			t.Errorf("ranking %v: limit 10 allocates %.0f times, limit 0 %.0f; want at most half", rank, page, full)
		}
		const slack = 5
		if wider := allocs(40); wider-page > 40-10+slack {
			t.Errorf("ranking %v: limit 40 allocates %.0f times, limit 10 %.0f; want at most %d more", rank, wider, page, 40-10+slack)
		}
	}
}

// TestQueryFanOutAllocations pins what a warmed one-term query on four
// shards allocates. Its fan-out runs on the process's long-lived workers
// and costs one job and one closure, however many partitions, so a
// partition that costs a goroutine or a closure of its own shows here.
func TestQueryFanOutAllocations(t *testing.T) {
	cat := shardedCatalog(t, syntheticFS(t, 300), 4)
	ctx := context.Background()
	req := Query{Text: "alpha", Limit: 10}
	if _, err := cat.Query(ctx, req); err != nil { // warm universes
		t.Fatal(err)
	}
	const want = 58
	if got := testing.AllocsPerRun(20, func() {
		if _, err := cat.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); got != want {
		t.Errorf("a 4-shard one-term query allocates %.0f times, want %d", got, want)
	}
}

func TestQueryCancellation(t *testing.T) {
	fs := syntheticFS(t, 300)
	cat := shardedCatalog(t, fs, 4)
	if _, err := cat.Query(context.Background(), Query{Text: "alpha"}); err != nil { // warm universes
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// A context canceled before the call fails with ctx.Err() immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cat.Query(ctx, Query{Text: "alpha OR beta", Limit: 10}); err != context.Canceled {
		t.Fatalf("pre-canceled query err = %v, want context.Canceled", err)
	}

	// Cancel racing the fan-out: the query must return promptly with
	// either a complete result or ctx.Err() — and leave no goroutines.
	for i := 0; i < 50; i++ {
		qctx, qcancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := cat.Query(qctx, Query{Text: "alpha OR beta OR gamma OR delta", Limit: 10})
			done <- err
		}()
		qcancel()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Fatalf("iteration %d: err = %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: canceled query did not return", i)
		}
	}

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d running, started with %d", g, before)
	}
}

// TestQueryConcurrentWithUpdate races paginated queries against
// incremental updates; under -race this verifies the engine's maintenance
// locking covers the v2 path.
func TestQueryConcurrentWithUpdate(t *testing.T) {
	fs := syntheticFS(t, 120)
	cat := shardedCatalog(t, fs, 4)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cat.Query(ctx, Query{Text: "alpha OR beta", Limit: 5, Ranking: RankTF})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp.Hits) > 5 {
					t.Errorf("limit ignored: %d hits", len(resp.Hits))
					return
				}
			}
		}()
	}
	for round := 0; round < 5; round++ {
		for j := 0; j < 12; j++ {
			p := fmt.Sprintf("dir%d/doc%04d.txt", j%4, j)
			content := fmt.Sprintf("alpha churned beta round%d edit%d", round, j)
			if err := fs.WriteFile(p, []byte(content)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cat.Update(fs, "."); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestQueryTFRankingPublic(t *testing.T) {
	fs := vfs.NewMemFS()
	files := map[string]string{
		"many.txt": "storm storm storm storm calm",
		"few.txt":  "storm calm breeze",
	}
	for name, content := range files {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := IndexFS(fs, ".", Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	coord, err := cat.Query(ctx, Query{Text: "storm OR breeze"})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Hits[0].Path != "few.txt" || coord.Hits[0].Score != 2 {
		t.Errorf("coordination top hit = %+v", coord.Hits[0])
	}
	tf, err := cat.Query(ctx, Query{Text: "storm OR breeze", Ranking: RankTF})
	if err != nil {
		t.Fatal(err)
	}
	if tf.Hits[0].Path != "many.txt" || tf.Hits[0].Score != 4 {
		t.Errorf("tf top hit = %+v", tf.Hits[0])
	}
	if !reflect.DeepEqual(tf.Hits[0].Terms, []string{"storm"}) {
		t.Errorf("tf top hit terms = %v", tf.Hits[0].Terms)
	}
}

func TestQueryPathPrefixPublic(t *testing.T) {
	fs := syntheticFS(t, 80)
	cat := shardedCatalog(t, fs, 4)
	resp, err := cat.Query(context.Background(), Query{Text: "alpha", PathPrefix: "dir2/"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 20 {
		t.Errorf("Total = %d, want 20", resp.Total)
	}
	for _, h := range resp.Hits {
		if !strings.HasPrefix(h.Path, "dir2/") {
			t.Errorf("hit %q escapes prefix", h.Path)
		}
	}
}

func TestQueryExprReuse(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := ParseQuery("quarterly report")
	if err != nil {
		t.Fatal(err)
	}
	if expr.String() != "(quarterly AND report)" {
		t.Errorf("Expr.String = %q", expr.String())
	}
	ctx := context.Background()
	byExpr, err := cat.Query(ctx, Query{Expr: expr})
	if err != nil {
		t.Fatal(err)
	}
	byText, err := cat.Query(ctx, Query{Text: "quarterly report"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byExpr.Hits, byText.Hits) {
		t.Errorf("Expr and Text disagree: %v vs %v", byExpr.Hits, byText.Hits)
	}
	if _, err := ParseQuery("((("); err == nil {
		t.Error("bad query parsed")
	}
}

func TestQueryRequestValidation(t *testing.T) {
	cat, err := IndexFS(demoFS(t), ".", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, q := range map[string]Query{
		"parse error":      {Text: "((("},
		"negative limit":   {Text: "report", Limit: -1},
		"negative offset":  {Text: "report", Offset: -3},
		"unknown ranking":  {Text: "report", Ranking: Ranking(77)},
		"empty query text": {},
	} {
		if _, err := cat.Query(ctx, q); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestOptionsValidateNegatives: negative option values fail fast with an
// error naming the field, instead of misbehaving downstream.
func TestOptionsValidateNegatives(t *testing.T) {
	fs := demoFS(t)
	for field, opt := range map[string]Options{
		"Shards":     {Shards: -1},
		"Extractors": {Extractors: -2},
		"Updaters":   {Updaters: -3},
	} {
		_, err := IndexFS(fs, ".", opt)
		if err == nil {
			t.Errorf("negative %s accepted", field)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error for negative %s does not name it: %v", field, err)
		}
	}
}

// TestStatsExactTerms: a sharded catalog reports the same distinct-term
// count as the equivalent single-index build — the per-partition sum it
// used to report counts shared terms once per shard.
func TestStatsExactTerms(t *testing.T) {
	fs := demoFS(t)
	seq, err := IndexFS(fs, ".", Options{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := IndexFS(fs, ".", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sharded.Stats().Terms, seq.Stats().Terms; got != want {
		t.Errorf("sharded Terms = %d, sequential = %d", got, want)
	}
}

// TestQueryDefaults pins the v1-equivalent defaults of the Query API: the
// zero controls return every hit coordination-ranked across partition
// shapes, and degenerate input (the zero Query) is rejected rather than
// silently defaulting to something.
func TestQueryDefaults(t *testing.T) {
	fs := syntheticFS(t, 120)
	for _, shards := range []int{0, 4} {
		cat := shardedCatalog(t, fs, shards)
		for _, q := range []string{
			"alpha",
			"alpha beta",
			"alpha OR beta",
			"gamma -delta",
			"(alpha OR beta) -epsilon",
			"nosuchterm",
		} {
			res, err := cat.Query(context.Background(), Query{Text: q})
			if err != nil {
				t.Fatalf("Query(%q): %v", q, err)
			}
			if len(res.Hits) != res.Total {
				t.Fatalf("shards=%d %q: zero controls returned %d hits but total %d",
					shards, q, len(res.Hits), res.Total)
			}
			for i := 1; i < len(res.Hits); i++ {
				prev, cur := res.Hits[i-1], res.Hits[i]
				if cur.Score > prev.Score || (cur.Score == prev.Score && cur.File < prev.File) {
					t.Fatalf("shards=%d %q: hits %d,%d out of order: %+v then %+v",
						shards, q, i-1, i, prev, cur)
				}
			}
		}

		// The zero Query must fail, not default to an empty expression.
		if _, err := cat.Query(context.Background(), Query{}); err == nil {
			t.Fatalf("shards=%d: empty query accepted", shards)
		}
	}
}

// requestKey is what identifies a normalized request's answer: its
// canonical expression and every retrieval control that changes the page.
type requestKey struct {
	expr                          string
	limit, offset, maxPrefixTerms int
	ranking                       Ranking
	snippets                      bool
	pathPrefix                    string
}

func keyOf(q Query) requestKey {
	return requestKey{q.Expr.String(), q.Limit, q.Offset, q.MaxPrefixTerms, q.Ranking, q.Snippets, q.PathPrefix}
}

// normalizedKey normalizes the request, then keys it.
func normalizedKey(q Query) (requestKey, error) {
	q, err := q.Normalize()
	if err != nil {
		return requestKey{}, err
	}
	return keyOf(q), nil
}

// TestQueryNormalize covers Normalize: equivalent spellings collapse to
// one key, different retrieval controls do not, and invalid requests are
// rejected before they reach evaluation.
func TestQueryNormalize(t *testing.T) {
	base, err := Query{Text: "cat dog"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Expr == nil {
		t.Fatal("Normalize did not populate Expr")
	}
	key := keyOf(base)
	for _, same := range []string{"cat AND dog", "  cat   dog ", "(cat dog)", "Cat Dog!"} {
		k, err := normalizedKey(Query{Text: same})
		if err != nil {
			t.Fatalf("%q: %v", same, err)
		}
		if k != key {
			t.Errorf("%q normalized to %#v, want %#v", same, k, key)
		}
	}
	for name, other := range map[string]Query{
		"different query": {Text: "cat OR dog"},
		"limit":           {Text: "cat dog", Limit: 10},
		"offset":          {Text: "cat dog", Offset: 5},
		"ranking":         {Text: "cat dog", Ranking: RankTF},
		"bm25 ranking":    {Text: "cat dog", Ranking: RankBM25},
		"snippets":        {Text: "cat dog", Limit: 10, Snippets: true}, // snippets need a limit
		"prefix":          {Text: "cat dog", PathPrefix: "docs/"},
		"prefix cap":      {Text: "cat dog", MaxPrefixTerms: 64},
	} {
		k, err := normalizedKey(other)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == key {
			t.Errorf("%s: key collided with the base request", name)
		}
	}
	// A pre-parsed Expr takes precedence over Text, exactly as in Query.
	expr, err := ParseQuery("dog cat")
	if err != nil {
		t.Fatal(err)
	}
	k, err := normalizedKey(Query{Text: "ignored", Expr: expr})
	if err != nil {
		t.Fatal(err)
	}
	if k == key {
		t.Error("Expr-based key ignored the expression")
	}
	for name, bad := range map[string]Query{
		"empty":          {},
		"unbalanced":     {Text: "(cat"},
		"negative limit": {Text: "cat", Limit: -1},
		"bad offset":     {Text: "cat", Offset: -2},
		"bad ranking":    {Text: "cat", Ranking: Ranking(9)},
		"bad prefix cap": {Text: "cat", MaxPrefixTerms: -3},
		"no page":        {Text: "cat", Snippets: true},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("%s request normalized without error", name)
		}
	}
}

// TestNormalizeKeyInjective: Normalize keeps distinct requests distinct.
// PathPrefix is the one free-form field (an HTTP ?prefix= parameter can
// carry any byte, \x00 included), so the rows below craft prefixes that
// spell other fields, beside phrase, prefix-operator, ranking, snippet
// and cap variants of one query; every pair must key apart.
func TestNormalizeKeyInjective(t *testing.T) {
	requests := []Query{
		{Text: "cat dog"},
		{Text: "cat dog", PathPrefix: "docs/"},
		{Text: "cat dog", PathPrefix: "docs/\x00limit=1"},
		{Text: "cat dog", Limit: 1, PathPrefix: "docs/"},
		{Text: "cat dog", PathPrefix: "\x00"},
		{Text: "cat dog", PathPrefix: "\x00\x00"},
		{Text: "cat dog", PathPrefix: "1:a"},
		{Text: "cat dog", PathPrefix: "a\x00prefix=1:a"},
		{Text: "cat dog", Limit: 10, Offset: 5, PathPrefix: "p\x00rank=1"},
		{Text: "cat dog", Limit: 10, Offset: 5, Ranking: RankTF, PathPrefix: "p"},
		{Text: `"cat dog"`},                                           // phrase ≠ conjunction in the key
		{Text: "cat dog", Ranking: RankBM25},                          // each rank name keys separately
		{Text: "cat dog", Snippets: true, Limit: 1},                   // snippet flag keys separately
		{Text: "cat dog", Limit: 1},                                   // ...from the plain limited request
		{Text: "cat do*"},                                             // prefix operator ≠ the term
		{Text: "cat dog", Limit: 2, PathPrefix: "p\x00snippets=true"}, // crafted prefix can't fake the flag
		{Text: "cat dog", Limit: 2, Snippets: true, PathPrefix: "p"},  // (snippets need a limit)
		{Text: "cat dog", MaxPrefixTerms: 64},                         // explicit cap keys separately
		{Text: "cat dog", MaxPrefixTerms: 1024},                       // ...even when equal to the default
		{Text: "cat dog", PathPrefix: "p\x00maxprefix=64"},            // crafted prefix can't fake the cap
		{Text: "cat dog", MaxPrefixTerms: 64, PathPrefix: "p"},
	}
	keys := map[requestKey]int{}
	for i, q := range requests {
		key, err := normalizedKey(q)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("requests %d and %d collided on key %#v", prev, i, key)
		}
		keys[key] = i
	}
}

// TestGenerationAdvancesOnCommit pins the generation contract: building a
// catalog starts a generation, every committed change advances it, and a
// no-op update leaves it alone.
func TestGenerationAdvancesOnCommit(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g0 := cat.Generation()
	if _, err := cat.Update(fs, "."); err != nil {
		t.Fatal(err)
	}
	if cat.Generation() != g0 {
		t.Fatal("no-op update advanced the generation")
	}
	if err := fs.WriteFile("fresh.txt", []byte("omega")); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Update(fs, "."); err != nil {
		t.Fatal(err)
	}
	if cat.Generation() == g0 {
		t.Fatal("committed update did not advance the generation")
	}
}

// TestCatalogSwap: a full rebuild swapped in atomically answers with the
// new contents at a new generation, while queries racing the swap stay
// race-free (run with -race).
func TestCatalogSwap(t *testing.T) {
	fs := demoFS(t)
	cat, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g0 := cat.Generation()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cat.Query(context.Background(), Query{Text: "milk OR omega"}); err != nil {
					t.Error(err)
					return
				}
				cat.Stats()
				cat.TotalShards()
			}
		}()
	}

	if err := fs.WriteFile("swapped.txt", []byte("omega omega")); err != nil {
		t.Fatal(err)
	}
	fresh, err := IndexFS(fs, ".", Options{Extractors: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cat.Swap(fresh)
	close(stop)
	wg.Wait()

	if cat.Generation() == g0 {
		t.Error("swap did not advance the generation")
	}
	if got := cat.TotalShards(); got != 4 {
		t.Errorf("swapped catalog reports %d shards, want 4", got)
	}
	resp, err := cat.Query(context.Background(), Query{Text: "omega"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 1 {
		t.Errorf("post-swap query: total %d, want 1", resp.Total)
	}
}
