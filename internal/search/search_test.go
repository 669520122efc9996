package search

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// fixture builds a small corpus as both a single index and three replicas
// (round-robin by file ID), with one term-free file (id 9).
//
//	0: cat dog          3: cat            6: dog fish
//	1: dog              4: cat dog fish   7: cat fish
//	2: fish             5: (bird)         8: bird cat
//	9: (empty)
func fixture() (*index.FileTable, *index.Index, []*index.Index) {
	docs := [][]string{
		{"cat", "dog"},
		{"dog"},
		{"fish"},
		{"cat"},
		{"cat", "dog", "fish"},
		{"bird"},
		{"dog", "fish"},
		{"cat", "fish"},
		{"bird", "cat"},
		{},
	}
	files := index.NewFileTable()
	single := index.NewBuilder(false)
	replicas := newBuilders(3, false)
	for i, terms := range docs {
		id := files.Add("doc"+string(rune('0'+i))+".txt", int64(10*i), int64(i+1))
		single.AddBlock(id, terms, nil)
		replicas[i%3].AddBlock(id, terms, nil)
	}
	return files, single.Index(), buildAll(replicas)
}

// newBuilders returns n empty builders.
func newBuilders(n int, positional bool) []*index.Builder {
	bs := make([]*index.Builder, n)
	for i := range bs {
		bs[i] = index.NewBuilder(positional)
	}
	return bs
}

// buildAll builds each of bs.
func buildAll(bs []*index.Builder) []*index.Index {
	out := make([]*index.Index, len(bs))
	for i, b := range bs {
		out[i] = b.Index()
	}
	return out
}

func ids(hits []Hit) []postings.FileID {
	out := make([]postings.FileID, len(hits))
	for i, h := range hits {
		out[i] = h.File
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// searchString parses text and evaluates it through Query with the zero
// controls — every hit, coordination ranking — the one-call form most
// tests here want. Parse and evaluation errors both come back.
func searchString(e *Engine, text string) ([]Hit, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	resp, err := e.Query(context.Background(), Request{Query: q})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

func TestParseAndString(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"cat", "cat"},
		{"cat dog", "(cat AND dog)"},
		{"cat AND dog", "(cat AND dog)"},
		{"cat OR dog", "(cat OR dog)"},
		{"NOT cat", "(NOT cat)"},
		{"-cat", "(NOT cat)"},
		{"cat -dog", "(cat AND (NOT dog))"},
		{"(cat OR dog) fish", "((cat OR dog) AND fish)"},
		{"Cat! DOG?", "(cat AND dog)"}, // normalization
		{"not cat", "(NOT cat)"},       // keyword case-insensitive
		{"e-mail", "(e AND mail)"},     // intra-word '-' splits like indexing
		{"cat OR dog OR fish", "(cat OR dog OR fish)"},
		// A quoted keyword is an ordinary term, in every boolean form.
		{`"or" cat`, `("or" AND cat)`},
		{`"and" "not"`, `("and" AND "not")`},
		{`"or" OR "and"`, `("or" OR "and")`},
		{`cat -"not"`, `(cat AND (NOT "not"))`},
	}
	for _, tc := range tests {
		q, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if q.String() != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.in, q.String(), tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "(cat", "cat)", "OR cat", "cat OR", "NOT", "()", "!!!", "(", ")"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestQueryTerms(t *testing.T) {
	q := MustParse("cat dog OR (fish -cat) cat")
	want := []string{"cat", "dog", "fish"}
	got := append([]string{}, q.Terms()...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v", got)
	}
	// Negated-only terms are not positive.
	q2 := MustParse("-draft cat")
	if len(q2.Terms()) != 1 || q2.Terms()[0] != "cat" {
		t.Errorf("Terms = %v", q2.Terms())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("(")
}

func TestSingleIndexQueries(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	tests := []struct {
		query string
		want  []postings.FileID
	}{
		{"cat", []postings.FileID{0, 3, 4, 7, 8}},
		{"cat dog", []postings.FileID{0, 4}},
		{"cat dog fish", []postings.FileID{4}},
		{"cat OR bird", []postings.FileID{0, 3, 4, 5, 7, 8}},
		{"fish -cat", []postings.FileID{2, 6}},
		{"NOT cat", []postings.FileID{1, 2, 5, 6, 9}},
		{"(cat OR dog) -fish", []postings.FileID{0, 1, 3, 8}},
		{"zebra", nil},
		{"cat zebra", nil},
		{"NOT (cat OR dog OR fish OR bird)", []postings.FileID{9}},
	}
	for _, tc := range tests {
		hits, err := searchString(e, tc.query)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		if got := ids(hits); !reflect.DeepEqual(got, tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("%q = %v, want %v", tc.query, got, tc.want)
		}
	}
}

// TestReplicasMatchSingle is the key Implementation-3 property: every query
// returns identical results over the replica set and the joined index.
func TestReplicasMatchSingle(t *testing.T) {
	files, single, replicas := fixture()
	se := NewEngine(files, single)
	re := NewEngine(files, index.Partitions(replicas)...)
	queries := []string{
		"cat", "dog", "fish", "bird",
		"cat dog", "cat OR dog", "fish -cat", "NOT cat",
		"NOT (cat OR dog OR fish OR bird)",
		"(cat OR bird) (dog OR fish)",
		"zebra", "cat -cat",
	}
	for _, q := range queries {
		sh, err := searchString(se, q)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := searchString(re, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids(sh), ids(rh)) {
			t.Errorf("%q: single %v, replicas %v", q, ids(sh), ids(rh))
		}
	}
}

// panicky is a partition whose every read of the term "boom" panics.
type panicky struct{ *index.Index }

func (p panicky) boom(term string) {
	if term == "boom" {
		panic("read of boom")
	}
}

func (p panicky) Lookup(term string) *postings.List { p.boom(term); return p.Index.Lookup(term) }
func (p panicky) Counts(term string) *postings.List { p.boom(term); return p.Index.Counts(term) }
func (p panicky) Iterator(term string) index.PostingIterator {
	p.boom(term)
	return p.Index.Iterator(term)
}

// TestPartitionPanicFailsOneQuery: a panic while one partition evaluates
// fails that query with CodeInternal, on the fanned-out path (several
// partitions) and the inline one (one) alike, and the engine answers the
// next query as before.
func TestPartitionPanicFailsOneQuery(t *testing.T) {
	files, single, replicas := fixture()
	want, err := searchString(NewEngine(files, index.Partitions(replicas)...), "cat OR fish")
	if err != nil {
		t.Fatal(err)
	}
	fanned := index.Partitions(replicas)
	fanned[1] = panicky{replicas[1]}
	for _, parts := range [][]index.Partition{fanned, {panicky{single}}} {
		e := NewEngine(files, parts...)
		for _, q := range []string{"boom", "cat OR boom", "fish -boom"} {
			_, err := searchString(e, q)
			var qe *QueryError
			if !errors.As(err, &qe) || qe.Code != CodeInternal || !errors.Is(err, ErrInternal) {
				t.Fatalf("%d partitions %q: error %v, want a QueryError with code %s", len(parts), q, err, CodeInternal)
			}
		}
		got, err := searchString(e, "cat OR fish")
		if err != nil || !reflect.DeepEqual(ids(got), ids(want)) {
			t.Fatalf("%d partitions: next query answered %v, %v; want %v", len(parts), ids(got), err, ids(want))
		}
	}
}

// outsidePanicky is a partition that panics in the reads the engine makes
// on the request goroutine, outside the per-partition fan-out: DocFreq of
// "boom" (BM25 statistics), the dictionary walk from "boom" (Suggest), and
// Docs (the NOT universes) while docsPanic is set.
type outsidePanicky struct {
	*index.Index
	docsPanic *atomic.Bool
}

func (p outsidePanicky) DocFreq(term string) int {
	if term == "boom" {
		panic("df of boom")
	}
	return p.Index.DocFreq(term)
}

func (p outsidePanicky) TermsFrom(from string, yield func(term string, df int) bool) {
	if from == "boom" {
		panic("walk from boom")
	}
	p.Index.TermsFrom(from, yield)
}

func (p outsidePanicky) Docs() *postings.List {
	if p.docsPanic.Load() {
		panic("docs")
	}
	return p.Index.Docs()
}

// TestRequestPanicFailsOneQuery: a panic in what Query, DocFreqs and
// Suggest run on the request goroutine — BM25 statistics, the NOT
// universes, the suggestion walk — fails that request with CodeInternal,
// releases the engine's lock, and leaves the next request answering.
func TestRequestPanicFailsOneQuery(t *testing.T) {
	files, _, replicas := fixture()
	var docsPanic atomic.Bool
	parts := index.Partitions(replicas)
	parts[1] = outsidePanicky{replicas[1], &docsPanic}
	e := NewEngine(files, parts...)
	ctx := context.Background()
	bm25 := func(text string) (*Response, error) {
		return e.Query(ctx, Request{Query: MustParse(text), Ranking: RankBM25})
	}
	wantInternal := func(what string, err error) {
		t.Helper()
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Code != CodeInternal || !errors.Is(err, ErrInternal) {
			t.Fatalf("%s: error %v, want a QueryError with code %s", what, err, CodeInternal)
		}
		// Maintain takes the write lock: it returns only if the failed
		// request released its read lock.
		done := make(chan struct{})
		go func() { e.Maintain(func() {}); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the engine's lock is still held", what)
		}
	}

	_, err := bm25("cat OR boom")
	wantInternal("BM25 query", err)
	_, err = e.DocFreqs(ctx, MustParse("cat boom"), 0)
	wantInternal("DocFreqs", err)
	_, err = e.Suggest(ctx, "boom", 5)
	wantInternal("Suggest", err)
	docsPanic.Store(true)
	_, err = searchString(e, "-cat")
	wantInternal("NOT universes", err)
	docsPanic.Store(false)

	resp, err := bm25("cat")
	if err != nil || resp.Total != 5 {
		t.Fatalf("next BM25 query: %v, %v; want 5 hits", resp, err)
	}
	if hits, err := searchString(e, "-cat"); err != nil || len(hits) != 5 {
		t.Fatalf("next NOT query: %v, %v; want 5 hits", ids(hits), err)
	}
	if sug, err := e.Suggest(ctx, "ca", 5); err != nil || len(sug) != 1 {
		t.Fatalf("next Suggest: %v, %v", sug, err)
	}
}

func TestScoring(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	hits, err := searchString(e, "cat OR dog OR fish")
	if err != nil {
		t.Fatal(err)
	}
	// doc4 has all three terms: it must rank first with score 3.
	if hits[0].File != 4 || hits[0].Score != 3 {
		t.Errorf("top hit = %+v", hits[0])
	}
	// Scores are non-increasing.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Errorf("scores out of order at %d: %+v", i, hits)
		}
	}
	// Conjunctions score uniformly: every hit has both terms.
	hits2, _ := searchString(e, "cat dog")
	for _, h := range hits2 {
		if h.Score != 2 {
			t.Errorf("conjunction hit score = %g", h.Score)
		}
	}
}

func TestHitPaths(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	hits, _ := searchString(e, "bird")
	for _, h := range hits {
		if h.Path != files.Path(h.File) {
			t.Errorf("hit path %q != table path %q", h.Path, files.Path(h.File))
		}
	}
}

func TestEngineIndices(t *testing.T) {
	files, single, replicas := fixture()
	if NewEngine(files, single).Indices() != 1 {
		t.Error("single engine Indices != 1")
	}
	if NewEngine(files, index.Partitions(replicas)...).Indices() != 3 {
		t.Error("replica engine Indices != 3")
	}
}

func TestSearchStringParseError(t *testing.T) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	if _, err := searchString(e, "((("); err == nil {
		t.Error("bad query accepted")
	}
}

// Property: for random mini-corpora, replica evaluation equals single-index
// evaluation for a family of generated queries.
func TestReplicaEquivalenceQuick(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	queries := []string{
		"alpha", "alpha beta", "alpha OR beta", "-alpha",
		"alpha -beta", "(alpha OR beta) gamma", "NOT (alpha OR beta)",
		"alpha OR beta OR gamma OR delta",
	}
	if err := quick.Check(func(docBits []uint8, nRep uint8) bool {
		if len(docBits) == 0 {
			return true
		}
		if len(docBits) > 24 {
			docBits = docBits[:24]
		}
		r := int(nRep%4) + 2
		files := index.NewFileTable()
		single, replicas := index.NewBuilder(false), newBuilders(r, false)
		for i, bits := range docBits {
			var terms []string
			for b, w := range vocab {
				if bits&(1<<b) != 0 {
					terms = append(terms, w)
				}
			}
			id := files.Add("f", int64(i), int64(i+1))
			single.AddBlock(id, terms, nil)
			replicas[i%r].AddBlock(id, terms, nil)
		}
		se := NewEngine(files, single.Index())
		re := NewEngine(files, index.Partitions(buildAll(replicas))...)
		for _, q := range queries {
			a, err1 := searchString(se, q)
			b, err2 := searchString(re, q)
			if err1 != nil || err2 != nil {
				return false
			}
			if !reflect.DeepEqual(ids(a), ids(b)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSearchSingle(b *testing.B) {
	files, single, _ := fixture()
	e := NewEngine(files, single)
	q := MustParse("cat OR dog OR fish")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Query(context.Background(), Request{Query: q})
	}
}

func BenchmarkSearchReplicasParallel(b *testing.B) {
	files, _, replicas := fixture()
	e := NewEngine(files, index.Partitions(replicas)...)
	q := MustParse("cat OR dog OR fish")
	e.Query(context.Background(), Request{Query: q}) // warm universes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Query(context.Background(), Request{Query: q})
	}
}

func TestMergeRanked(t *testing.T) {
	h := func(file postings.FileID, score float64) Hit {
		return Hit{File: file, Score: score}
	}
	cases := []struct {
		name  string
		parts [][]Hit
		want  []Hit
	}{
		{"empty", nil, nil},
		{"all-empty", [][]Hit{nil, {}, nil}, nil},
		{"single", [][]Hit{{h(1, 2), h(3, 1)}}, []Hit{h(1, 2), h(3, 1)}},
		{
			"interleaved",
			[][]Hit{
				{h(2, 3), h(0, 1)},
				{h(1, 3), h(4, 2)},
				{h(3, 3)},
			},
			[]Hit{h(1, 3), h(2, 3), h(3, 3), h(4, 2), h(0, 1)},
		},
		{
			"skewed-lengths",
			[][]Hit{
				{h(0, 5), h(1, 4), h(2, 3), h(3, 2), h(4, 1)},
				{h(5, 3)},
			},
			[]Hit{h(0, 5), h(1, 4), h(2, 3), h(5, 3), h(3, 2), h(4, 1)},
		},
	}
	for _, tc := range cases {
		if got := MergeRankedPage(tc.parts, 0); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: unbounded merge = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// probeCounter is a Partition that counts its dictionary probes.
type probeCounter struct {
	index.Partition
	iterators, docFreqs *atomic.Int64
}

func (p probeCounter) Iterator(term string) index.PostingIterator {
	p.iterators.Add(1)
	return p.Partition.Iterator(term)
}

func (p probeCounter) DocFreq(term string) int {
	p.docFreqs.Add(1)
	return p.Partition.DocFreq(term)
}

// TestAndProbesEachTermOnce: a k-term AND finds each term in a partition's
// dictionary once — k Iterator calls and no DocFreq — and stops at the
// first absent term, probing none after it.
func TestAndProbesEachTermOnce(t *testing.T) {
	docs := make([][]string, 12)
	for i := range docs {
		docs[i] = []string{"a", "b", "c", "d"}[:1+i%4]
		docs[i] = append(docs[i], "d", "c")
	}
	_, ixs := positionalParts(docs, 3)
	for _, tc := range []struct {
		query  string
		probes int64
	}{
		{"a b", 2}, {"d b c", 3}, {"a b c d", 4},
		{"a zz b", 2}, // zz is absent: b is never probed
	} {
		q := MustParse(tc.query)
		for p, ix := range ixs {
			var iterators, docFreqs atomic.Int64
			env := &evalEnv{ctx: context.Background(), ix: probeCounter{ix, &iterators, &docFreqs}}
			got, err := env.eval(q.root)
			if err != nil {
				t.Fatal(err)
			}
			var want []postings.FileID
			for i, doc := range docs {
				if i%len(ixs) == p && !slices.ContainsFunc(strings.Fields(tc.query), func(term string) bool {
					return !slices.Contains(doc, term)
				}) {
					want = append(want, postings.FileID(i))
				}
			}
			if !slices.Equal(got.IDs(), want) {
				t.Fatalf("%q, partition %d: %v, want %v", tc.query, p, got.IDs(), want)
			}
			if iterators.Load() != tc.probes || docFreqs.Load() != 0 {
				t.Errorf("%q, partition %d: %d Iterator and %d DocFreq calls, want %d and 0",
					tc.query, p, iterators.Load(), docFreqs.Load(), tc.probes)
			}
		}
	}
}
