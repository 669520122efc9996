package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// bigFixture builds a corpus of n files over a small vocabulary as a
// single index and r replicas, with term frequencies that vary by file so
// TF ranking orders differently than coordination ranking.
func bigFixture(n, r int) (*index.FileTable, *index.Index, []*index.Index) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	files := index.NewFileTable()
	single, replicas := index.NewBuilder(false), newBuilders(r, false)
	for i := 0; i < n; i++ {
		var terms []string
		var counts []uint32
		for b, w := range vocab {
			if i%(b+1) == 0 {
				terms = append(terms, w)
				counts = append(counts, uint32(i%7+1))
			}
		}
		id := files.Add(fmt.Sprintf("dir%d/f%04d.txt", i%3, i), int64(i), int64(i+1))
		single.AddBlock(id, terms, counts)
		replicas[i%r].AddBlock(id, terms, counts)
	}
	return files, single.Index(), buildAll(replicas)
}

// TestQueryPagedMatchesSearch: every (limit, offset) page must be exactly
// the corresponding slice of the unlimited, full-sort result, over both a
// single index and a replica fan-out, under every ranking — so BM25's WAND
// skip against the candidate heap's worst score is held to the full sort —
// and under a path filter.
func TestQueryPagedMatchesSearch(t *testing.T) {
	files, single, replicas := bigFixture(240, 4)
	for _, engines := range []struct {
		name string
		e    *Engine
	}{
		{"single", NewEngine(files, single)},
		{"replicas", NewEngine(files, index.Partitions(replicas)...)},
	} {
		e := engines.e
		for _, rank := range []Ranking{RankCount, RankTF, RankBM25} {
			for _, qc := range []struct{ q, pathPrefix string }{
				{"alpha", ""}, {"beta OR gamma", ""}, {"alpha -delta", ""}, {"beta OR gamma OR epsilon", ""},
				{"beta OR gamma OR epsilon", "dir1/"},
			} {
				name := fmt.Sprintf("%s %v %q prefix %q", engines.name, rank, qc.q, qc.pathPrefix)
				base := Request{Query: MustParse(qc.q), Ranking: rank, PathPrefix: qc.pathPrefix}
				fullResp, err := e.Query(context.Background(), base)
				if err != nil {
					t.Fatal(err)
				}
				full := fullResp.Hits
				for _, page := range []struct{ limit, offset int }{
					{10, 0}, {1, 0}, {7, 3}, {10, len(full) - 5}, {10, len(full) + 5}, {len(full) + 10, 0}, {0, 4},
				} {
					req := base
					req.Limit, req.Offset = page.limit, page.offset
					resp, err := e.Query(context.Background(), req)
					if err != nil {
						t.Fatalf("%s limit=%d offset=%d: %v", name, page.limit, page.offset, err)
					}
					want := full
					if page.offset > 0 {
						if page.offset >= len(want) {
							want = nil
						} else {
							want = want[page.offset:]
						}
					}
					if page.limit > 0 && len(want) > page.limit {
						want = want[:page.limit]
					}
					if len(resp.Hits) != len(want) {
						t.Fatalf("%s limit=%d offset=%d: got %d hits, want %d",
							name, page.limit, page.offset, len(resp.Hits), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(resp.Hits[i], want[i]) {
							t.Errorf("%s limit=%d offset=%d hit %d: got %+v, want %+v",
								name, page.limit, page.offset, i, resp.Hits[i], want[i])
						}
					}
					if resp.Total != len(full) {
						t.Errorf("%s: Total = %d, want %d", name, resp.Total, len(full))
					}
				}
			}
		}
	}
}

func TestQueryPartitionStats(t *testing.T) {
	files, _, replicas := bigFixture(120, 4)
	e := NewEngine(files, index.Partitions(replicas)...)
	resp, err := e.Query(context.Background(), Request{Query: MustParse("alpha OR beta"), Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Partitions) != 4 {
		t.Fatalf("got %d partition stats, want 4", len(resp.Partitions))
	}
	sum := 0
	for i, p := range resp.Partitions {
		if p.Partition != i {
			t.Errorf("partition %d labeled %d", i, p.Partition)
		}
		sum += p.Matched
	}
	if sum != resp.Total {
		t.Errorf("partition Matched sum %d != Total %d", sum, resp.Total)
	}
}

func TestQueryTFRanking(t *testing.T) {
	files := index.NewFileTable()
	bld := index.NewBuilder(false)
	// f0 mentions "cat" 5 times; f1 mentions "cat" once and "dog" once.
	a := files.Add("f0", 1, 1)
	b := files.Add("f1", 2, 2)
	bld.AddBlock(a, []string{"cat"}, []uint32{5})
	bld.AddBlock(b, []string{"cat", "dog"}, []uint32{1, 1})
	e := NewEngine(files, bld.Index())
	q := MustParse("cat OR dog")

	coord, err := e.Query(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	// Coordination: f1 matches two distinct terms, f0 one.
	if coord.Hits[0].File != b || coord.Hits[0].Score != 2 || coord.Hits[1].Score != 1 {
		t.Errorf("coordination hits = %+v", coord.Hits)
	}

	tf, err := e.Query(context.Background(), Request{Query: q, Ranking: RankTF})
	if err != nil {
		t.Fatal(err)
	}
	// TF: f0's five cats outweigh f1's cat+dog.
	if tf.Hits[0].File != a || tf.Hits[0].Score != 5 || tf.Hits[1].Score != 2 {
		t.Errorf("tf hits = %+v", tf.Hits)
	}
}

func TestQueryMatchedTerms(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	resp, err := e.Query(context.Background(), Request{Query: MustParse("cat OR dog OR fish")})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range resp.Hits {
		if float64(len(h.Terms)) != h.Score {
			t.Errorf("file %d: %d matched terms but score %g", h.File, len(h.Terms), h.Score)
		}
	}
	// doc4 holds all three.
	for _, h := range resp.Hits {
		if h.File == 4 && !reflect.DeepEqual(h.Terms, []string{"cat", "dog", "fish"}) {
			t.Errorf("doc4 terms = %v", h.Terms)
		}
	}
	// Pure NOT queries match with no positive terms.
	not, err := e.Query(context.Background(), Request{Query: MustParse("NOT cat")})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range not.Hits {
		if h.Terms != nil || h.Score != 0 {
			t.Errorf("NOT hit carries terms: %+v", h)
		}
	}
}

func TestQueryPathPrefix(t *testing.T) {
	files, single, replicas := bigFixture(90, 3)
	for _, e := range []*Engine{NewEngine(files, single), NewEngine(files, index.Partitions(replicas)...)} {
		all, err := e.Query(context.Background(), Request{Query: MustParse("alpha")})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := e.Query(context.Background(), Request{Query: MustParse("alpha"), PathPrefix: "dir1/"})
		if err != nil {
			t.Fatal(err)
		}
		wantTotal := 0
		for _, h := range all.Hits {
			if len(h.Path) >= 5 && h.Path[:5] == "dir1/" {
				wantTotal++
			}
		}
		if filtered.Total != wantTotal {
			t.Errorf("prefix Total = %d, want %d", filtered.Total, wantTotal)
		}
		for _, h := range filtered.Hits {
			if h.Path[:5] != "dir1/" {
				t.Errorf("hit %q escapes prefix", h.Path)
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	q := MustParse("cat")
	cases := []Request{
		{},                              // no query
		{Query: q, Limit: -1},           // negative limit
		{Query: q, Offset: -2},          // negative offset
		{Query: q, Ranking: Ranking(9)}, // unknown ranking
		{Query: q, Limit: 10, Offset: math.MaxInt - 7},                                            // limit+offset overflows
		{Query: q, Ranking: RankBM25, GlobalDF: &DocFreqs{Docs: 3, Tokens: 12, Terms: []int{-1}}}, // negative df
	}
	for i, req := range cases {
		if _, err := e.Query(context.Background(), req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

func TestQueryCanceledUpFront(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, Request{Query: MustParse("cat")}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// countdownCtx reports itself canceled after its Err method has been
// consulted n times — a deterministic way to trip cancellation in the
// middle of the fan-out's evaluation steps.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestQueryCanceledMidFanout(t *testing.T) {
	files, _, replicas := bigFixture(200, 4)
	e := NewEngine(files, index.Partitions(replicas)...)
	searchString(e, "alpha") // warm universes
	q := MustParse("alpha OR beta OR gamma OR delta OR epsilon")
	// Trip cancellation at a spread of depths: the query must either
	// complete in full or fail with context.Canceled — never a partial
	// result presented as complete.
	full, err := searchString(e, q.String())
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n < 40; n += 3 {
		resp, err := e.Query(newCountdownCtx(n), Request{Query: q, Limit: 10})
		if err == nil {
			if len(resp.Hits) != 10 || resp.Total != len(full) {
				t.Fatalf("n=%d: completed query returned %d hits total %d, want 10/%d",
					n, len(resp.Hits), resp.Total, len(full))
			}
			continue
		}
		if err != context.Canceled {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if resp != nil {
			t.Fatalf("n=%d: canceled query returned a response", n)
		}
	}
}

func TestQueryCancelPrompt(t *testing.T) {
	files, _, replicas := bigFixture(400, 4)
	e := NewEngine(files, index.Partitions(replicas)...)
	searchString(e, "alpha") // warm universes
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, Request{Query: MustParse("alpha OR beta OR gamma"), Limit: 10})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Either the query finished before the cancel landed (nil) or it
		// observed the cancellation.
		if err != nil && err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return within 5s")
	}
}

// TestTopK holds the candidate heap to a reference full sort written out
// from the documented order: random scores, all ties (coordination ranking
// of a pure AND, where the File tie-break decides every slot), and k > n.
func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reference := func(cands []scored) []scored {
		out := slices.Clone(cands)
		sort.Slice(out, func(i, j int) bool {
			if out[i].score != out[j].score {
				return out[i].score > out[j].score
			}
			return out[i].file < out[j].file
		})
		return out
	}
	check := func(name string, n, k int, score func(i int) float64) {
		t.Helper()
		all := make([]scored, n)
		for i := range all {
			all[i] = scored{score: score(i), file: postings.FileID(i), mask: rng.Uint64()}
		}
		want := reference(all)
		shuffled := slices.Clone(all)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if sortScored(shuffled); !reflect.DeepEqual(shuffled, want) {
			t.Fatalf("%s (n=%d): sortScored = %v, want %v", name, n, shuffled, want)
		}
		heap := newTopK(k)
		for _, s := range rng.Perm(n) {
			heap.consider(all[s])
		}
		if len(want) > k {
			want = want[:k]
		}
		if got := heap.ranked(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (n=%d k=%d): topK = %v, want %v", name, n, k, got, want)
		}
	}
	for trial := 0; trial < 50; trial++ {
		check(fmt.Sprintf("random trial %d", trial), rng.Intn(200), rng.Intn(20)+1,
			func(int) float64 { return float64(rng.Intn(10)) })
	}
	check("all ties", 150, 10, func(int) float64 { return 2 })
	check("k > n", 7, 20, func(int) float64 { return float64(rng.Intn(3)) })
	// k = 0 collects nothing.
	zero := newTopK(0)
	zero.consider(scored{score: 1, file: 1})
	if len(zero.ranked()) != 0 {
		t.Error("topK(0) retained a candidate")
	}
}

func TestMergePage(t *testing.T) {
	h := func(file postings.FileID, score float64) Hit {
		return Hit{File: file, Score: score}
	}
	parts := [][]Hit{
		{h(2, 3), h(0, 1)},
		{h(1, 3), h(4, 2)},
		{h(3, 3)},
	}
	fullWant := []Hit{h(1, 3), h(2, 3), h(3, 3), h(4, 2), h(0, 1)}
	for n := 1; n <= len(fullWant)+2; n++ {
		got := MergeRankedPage(parts, n)
		want := fullWant
		if len(want) > n {
			want = want[:n]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("MergeRankedPage(n=%d) = %v, want %v", n, got, want)
		}
	}
	if MergeRankedPage(nil, 5) != nil {
		t.Error("MergeRankedPage(nil) != nil")
	}
	// A full-page merge agrees with the unbounded one.
	sameParts := [][]Hit{
		{h(0, 5), h(1, 4), h(2, 3), h(3, 2), h(4, 1)},
		{h(5, 3)},
	}
	if got, want := MergeRankedPage(sameParts, 100), MergeRankedPage(sameParts, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("full-page merge = %v, unbounded merge = %v", got, want)
	}
}

// TestOnePassAllocatesIndependentOfMatches: with Limit 10, a root that is
// a term, an AND, an OR or an AND with a NOT leg allocates the same number
// of times over a partition where it matches about 100 files as over one
// where it matches about 5 000, under every ranking: the root's cursor
// feeds the bounded heap directly and no match list is built.
func TestOnePassAllocatesIndependentOfMatches(t *testing.T) {
	engine := func(n int) *Engine {
		files := index.NewFileTable()
		bld := index.NewBuilder(false)
		for i := 0; i < n; i++ {
			terms, counts := []string{"a"}, []uint32{uint32(i%3 + 1)}
			if i%2 == 0 {
				terms, counts = append(terms, "b"), append(counts, 2)
			}
			if i%4 == 0 {
				terms, counts = append(terms, "c"), append(counts, 1)
			}
			id := files.Add(fmt.Sprintf("f%05d", i), 1, 1)
			files.SetTokens(id, uint32(len(terms)+i%5))
			bld.AddBlock(id, terms, counts)
		}
		return NewEngine(files, bld.Index())
	}
	small, large := engine(200), engine(10_000)
	for _, text := range []string{"a", "a b", "a OR b", "a -c"} {
		for _, rank := range []Ranking{RankCount, RankTF, RankBM25} {
			req := Request{Query: MustParse(text), Limit: 10, Ranking: rank}
			allocs := func(e *Engine) float64 {
				if _, err := e.Query(context.Background(), req); err != nil { // fill the universe cache
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := e.Query(context.Background(), req); err != nil {
						t.Fatal(err)
					}
				})
			}
			if s, l := allocs(small), allocs(large); s != l {
				t.Errorf("%q %v: %.0f allocations over ~100 matches, %.0f over ~5 000; want the same", text, rank, s, l)
			}
		}
	}
}
