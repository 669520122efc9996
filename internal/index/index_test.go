package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"desksearch/internal/postings"
)

func TestFileTable(t *testing.T) {
	ft := NewFileTable()
	if ft.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	a := ft.Add("docs/a.txt", 100, 11)
	b := ft.Add("docs/b.txt", 200, 22)
	if a != 0 || b != 1 {
		t.Errorf("ids = %d, %d", a, b)
	}
	if ft.Path(a) != "docs/a.txt" || ft.Size(b) != 200 {
		t.Error("lookup wrong")
	}
	if len(ft.Paths()) != 2 {
		t.Error("Paths wrong")
	}
}

func TestAddBlockAndLookup(t *testing.T) {
	bld := NewBuilder(false)
	bld.AddBlock(1, []string{"alpha", "beta"}, nil)
	bld.AddBlock(2, []string{"beta", "gamma"}, nil)
	ix := bld.Index()
	if ix.NumTerms() != 3 {
		t.Errorf("NumTerms = %d", ix.NumTerms())
	}
	if ix.NumPostings() != 4 {
		t.Errorf("NumPostings = %d", ix.NumPostings())
	}
	if l := ix.Lookup("beta"); !reflect.DeepEqual(l.IDs(), []postings.FileID{1, 2}) {
		t.Errorf("beta -> %v", l.IDs())
	}
	if l := ix.Lookup("alpha"); !reflect.DeepEqual(l.IDs(), []postings.FileID{1}) {
		t.Errorf("alpha -> %v", l.IDs())
	}
	if ix.Lookup("absent") != nil {
		t.Error("absent term returned a list")
	}
}

func TestRangeAndTerms(t *testing.T) {
	bld := NewBuilder(false)
	bld.AddBlock(0, []string{"a", "b", "c"}, nil)
	ix := bld.Index()
	var seen []string
	ix.Range(func(term string, l *postings.List) bool {
		seen = append(seen, term)
		return true
	})
	sort.Strings(seen)
	if !reflect.DeepEqual(seen, []string{"a", "b", "c"}) {
		t.Errorf("Range saw %v", seen)
	}
	terms := ix.Terms(nil)
	sort.Strings(terms)
	if !reflect.DeepEqual(terms, []string{"a", "b", "c"}) {
		t.Errorf("Terms = %v", terms)
	}
}

func TestJoinMergesPostings(t *testing.T) {
	bld := NewBuilder(false)
	bld.AddBlock(0, []string{"shared", "onlyA"}, nil)
	a := bld.Index()
	bld.AddBlock(1, []string{"shared", "onlyB"}, nil)
	b := bld.Index()
	a.Join(b)
	if a.NumTerms() != 3 {
		t.Errorf("NumTerms = %d", a.NumTerms())
	}
	if a.NumPostings() != 4 {
		t.Errorf("NumPostings = %d", a.NumPostings())
	}
	if l := a.Lookup("shared"); !reflect.DeepEqual(l.IDs(), []postings.FileID{0, 1}) {
		t.Errorf("shared -> %v", l.IDs())
	}
	a.Join(nil) // must not panic
}

func TestJoinPropagatesPositional(t *testing.T) {
	a, bld := New(0), NewBuilder(false)
	bld.AddBlockPositional(1, []string{"cat", "dog"}, [][]uint32{{0, 2}, {1}})
	b := bld.Index()
	a.Join(b)
	if !a.Positional() {
		t.Error("join lost the positional flag")
	}
}

func TestJoinOverlappingPostingsCountsOnce(t *testing.T) {
	bld := NewBuilder(false)
	bld.AddBlock(3, []string{"t"}, nil)
	a := bld.Index()
	bld.AddBlock(3, []string{"t"}, nil) // same (term, file) posting in both
	b := bld.Index()
	a.Join(b)
	if a.NumPostings() != 1 {
		t.Errorf("NumPostings = %d, want 1", a.NumPostings())
	}
}

func TestEqual(t *testing.T) {
	bld := NewBuilder(false)
	bld.AddBlock(0, []string{"x", "y"}, nil)
	a := bld.Index()
	bld.AddBlock(0, []string{"y", "x"}, nil)
	b := bld.Index()
	if !a.Equal(b) {
		t.Error("order-insensitive indices should be equal")
	}
	bld.AddBlock(0, []string{"y", "x"}, nil)
	bld.AddBlock(1, []string{"x"}, nil)
	if a.Equal(bld.Index()) {
		t.Error("different indices reported equal")
	}
	bld.AddBlock(0, []string{"x", "z"}, nil)
	c := bld.Index()
	if a.Equal(c) {
		t.Error("same size, different terms reported equal")
	}
}

// referenceIndex builds an index sequentially from (file, terms) pairs.
func referenceIndex(blocks map[postings.FileID][]string) *Index {
	bld := NewBuilder(false)
	ids := make([]postings.FileID, 0, len(blocks))
	for id := range blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		bld.AddBlock(id, blocks[id], nil)
	}
	return bld.Index()
}

func randomBlocks(rng *rand.Rand, nFiles, vocab int) map[postings.FileID][]string {
	blocks := map[postings.FileID][]string{}
	for f := 0; f < nFiles; f++ {
		n := 1 + rng.Intn(8)
		seen := map[string]bool{}
		var terms []string
		for len(terms) < n {
			w := fmt.Sprintf("w%d", rng.Intn(vocab))
			if !seen[w] {
				seen[w] = true
				terms = append(terms, w)
			}
		}
		blocks[postings.FileID(f)] = terms
	}
	return blocks
}

// Property: joining a partition of the blocks (in any order, with any join
// strategy) equals indexing them all sequentially — "Join Forces" loses and
// invents nothing.
func TestJoinEqualsSequentialReference(t *testing.T) {
	if err := quick.Check(func(seed int64, nReplicas uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := randomBlocks(rng, 30, 20)
		want := referenceIndex(blocks)

		r := int(nReplicas%5) + 1
		builders := make([]*Builder, r)
		for i := range builders {
			builders[i] = NewBuilder(false)
		}
		// Round-robin distribution, like the pipeline's.
		i := 0
		ids := make([]postings.FileID, 0, len(blocks))
		for id := range blocks {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			builders[i%r].AddBlock(id, blocks[id], nil)
			i++
		}
		replicas := make([]*Index, r)
		for i, b := range builders {
			replicas[i] = b.Index()
		}
		got := JoinAll(replicas)
		return got.Equal(want)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParallelJoinEqualsSequentialJoin(t *testing.T) {
	for _, nReplicas := range []int{1, 2, 3, 5, 8, 16} {
		for _, workers := range []int{1, 2, 4} {
			rng := rand.New(rand.NewSource(int64(nReplicas*100 + workers)))
			blocks := randomBlocks(rng, 60, 30)
			want := referenceIndex(blocks)

			build := func() []*Index {
				builders := make([]*Builder, nReplicas)
				for i := range builders {
					builders[i] = NewBuilder(false)
				}
				i := 0
				ids := make([]postings.FileID, 0, len(blocks))
				for id := range blocks {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
				for _, id := range ids {
					builders[i%nReplicas].AddBlock(id, blocks[id], nil)
					i++
				}
				replicas := make([]*Index, nReplicas)
				for i, b := range builders {
					replicas[i] = b.Index()
				}
				return replicas
			}
			got := ParallelJoin(build(), workers)
			if !got.Equal(want) {
				t.Fatalf("ParallelJoin(%d replicas, %d workers) diverged", nReplicas, workers)
			}
			if got.NumPostings() != want.NumPostings() {
				t.Fatalf("posting count diverged: %d vs %d", got.NumPostings(), want.NumPostings())
			}
		}
	}
}

// TestDictionaryMatchesMapModel runs seeded sequences of every dictionary
// mutator against a plain term → file-IDs map and, after each step,
// compares every read: Lookup and DocFreq of present and absent terms, the
// counts, Docs, and the ascending walks of TermsFrom and Range. Reading the
// walks between mutations builds the sorted cache each time, so a mutator
// that leaves it stale — RemoveFiles swaps list pointers without changing
// the term count — shows up as a walk that disagrees with the model.
func TestDictionaryMatchesMapModel(t *testing.T) {
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", i)
	}
	absent := []string{"", "t", "t40", "zz"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		positional := seed%2 == 0
		ix := New(rng.Intn(64))
		model := map[string][]postings.FileID{}
		next := postings.FileID(0) // every ID below it has been issued
		// terms picks 1..8 distinct words, as a duplicate-free block holds.
		terms := func() []string {
			picked := rng.Perm(len(vocab))[:1+rng.Intn(8)]
			out := make([]string, len(picked))
			for i, p := range picked {
				out[i] = vocab[p]
			}
			return out
		}
		// add logs a block under a fresh ID into dst, whose index is then
		// joined into ix.
		add := func(dst *Builder, terms []string) {
			id := next
			next++
			positions := make([][]uint32, len(terms))
			for i, term := range terms {
				positions[i] = []uint32{uint32(i)}
				model[term] = union(model[term], id)
			}
			if positional {
				dst.AddBlockPositional(id, terms, positions)
			} else {
				dst.AddBlock(id, terms, nil)
			}
		}
		for step := 0; step < 60; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "AddBlock"
				one := NewBuilder(positional)
				add(one, terms())
				ix.Join(one.Index())
			case r < 6:
				op = "MergeTerm"
				term := vocab[rng.Intn(len(vocab))]
				l := &postings.List{}
				for k := rng.Intn(4); k >= 0; k-- {
					// An issued ID, or a fresh one.
					id := postings.FileID(rng.Intn(int(next) + 1))
					if id == next {
						next++
					}
					if positional {
						l.Merge(postings.FromSortedIDPositions([]postings.FileID{id}, [][]uint32{{0}}))
					} else {
						l.Add(id)
					}
					model[term] = union(model[term], id)
				}
				ix.MergeTerm(term, l)
			case r < 8:
				op = "RemoveFiles"
				var victims []postings.FileID
				for k := rng.Intn(6); k >= 0; k-- {
					victims = append(victims, postings.FileID(rng.Intn(int(next)+2)))
				}
				want := 0
				for term, ids := range model {
					kept := ids[:0:0]
					for _, id := range ids {
						if slices.Contains(victims, id) {
							want++
						} else {
							kept = append(kept, id)
						}
					}
					if len(kept) == 0 {
						delete(model, term)
					} else {
						model[term] = kept
					}
				}
				if got := ix.RemoveFiles(postings.FromIDs(victims)); got != want {
					t.Fatalf("seed %d step %d: RemoveFiles removed %d postings, model %d", seed, step, got, want)
				}
			default:
				op = "Join"
				other := NewBuilder(positional)
				for k := rng.Intn(4); k >= 0; k-- {
					add(other, terms())
				}
				ix.Join(other.Index())
			}
			checkAgainstModel(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), ix, model, absent)
		}
	}
}

// union returns ids with id added, ascending and duplicate-free.
func union(ids []postings.FileID, id postings.FileID) []postings.FileID {
	i, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(slices.Clone(ids), i, id)
}

func checkAgainstModel(t *testing.T, at string, ix *Index, model map[string][]postings.FileID, absent []string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	postingsWant := int64(0)
	var docs []postings.FileID
	for term, ids := range model {
		keys = append(keys, term)
		postingsWant += int64(len(ids))
		for _, id := range ids {
			docs = union(docs, id)
		}
		if l := ix.Lookup(term); l == nil || !slices.Equal(l.IDs(), ids) {
			t.Fatalf("%s: Lookup(%q) = %v, model %v", at, term, l, ids)
		}
		if df := ix.DocFreq(term); df != len(ids) {
			t.Fatalf("%s: DocFreq(%q) = %d, model %d", at, term, df, len(ids))
		}
	}
	sort.Strings(keys)
	for _, term := range absent {
		if l := ix.Lookup(term); l != nil || ix.DocFreq(term) != 0 {
			t.Fatalf("%s: absent term %q found", at, term)
		}
	}
	if ix.NumTerms() != len(model) || ix.NumPostings() != postingsWant {
		t.Fatalf("%s: %d terms, %d postings; model %d, %d", at, ix.NumTerms(), ix.NumPostings(), len(model), postingsWant)
	}
	if got := ix.Docs().IDs(); !slices.Equal(got, docs) {
		t.Fatalf("%s: Docs = %v, model %v", at, got, docs)
	}
	var walked []string
	ix.TermsFrom("", func(term string, df int) bool {
		if df != len(model[term]) {
			t.Fatalf("%s: TermsFrom df(%q) = %d, model %d", at, term, df, len(model[term]))
		}
		walked = append(walked, term)
		return true
	})
	if !slices.Equal(walked, keys) {
		t.Fatalf("%s: TermsFrom walked %v, model %v", at, walked, keys)
	}
	walked = walked[:0]
	ix.TermsFrom("t2", func(term string, _ int) bool {
		walked = append(walked, term)
		return true
	})
	if want := keys[sort.SearchStrings(keys, "t2"):]; !slices.Equal(walked, want) {
		t.Fatalf("%s: TermsFrom(\"t2\") walked %v, model %v", at, walked, want)
	}
	walked = walked[:0]
	ix.Range(func(term string, l *postings.List) bool {
		if !slices.Equal(l.IDs(), model[term]) {
			t.Fatalf("%s: Range list of %q = %v, model %v", at, term, l.IDs(), model[term])
		}
		walked = append(walked, term)
		return true
	})
	if !slices.Equal(walked, keys) {
		t.Fatalf("%s: Range walked %v, model %v", at, walked, keys)
	}
}

// TestDocsAllocsIndependentOfTerms: Docs marks the held IDs in one pass
// over the postings, so 100 terms and 10 000 terms over the same 100 files
// cost the same number of allocations — no per-term list or merge.
func TestDocsAllocsIndependentOfTerms(t *testing.T) {
	const files = 100
	allocs := func(terms int) float64 {
		ix := New(terms)
		for i := 0; i < terms; i++ {
			a, b := postings.FileID(i%files), postings.FileID((i+1)%files)
			ix.MergeTerm(fmt.Sprintf("t%05d", i), postings.FromIDs([]postings.FileID{a, b}))
		}
		if got := ix.Docs().Len(); got != files {
			t.Fatalf("%d terms: Docs holds %d files, want %d", terms, got, files)
		}
		return testing.AllocsPerRun(10, func() { ix.Docs() })
	}
	if few, many := allocs(100), allocs(10_000); few != many {
		t.Fatalf("Docs allocates %v times over 100 terms and %v over 10 000", few, many)
	}
}

func TestJoinAllEmpty(t *testing.T) {
	if ix := JoinAll(nil); ix.NumTerms() != 0 {
		t.Error("JoinAll(nil) not empty")
	}
	if ix := ParallelJoin(nil, 4); ix.NumTerms() != 0 {
		t.Error("ParallelJoin(nil) not empty")
	}
}

func TestSharedConcurrentAddBlock(t *testing.T) {
	s := NewShared(false)
	const workers = 8
	const filesPerWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < filesPerWorker; f++ {
				id := postings.FileID(w*filesPerWorker + f)
				s.AddBlock(id, []string{"common", fmt.Sprintf("w%d", w), fmt.Sprintf("f%d", f)}, nil)
			}
		}(w)
	}
	wg.Wait()
	ix := s.Index()
	if got := ix.Lookup("common").Len(); got != workers*filesPerWorker {
		t.Errorf("common has %d postings, want %d", got, workers*filesPerWorker)
	}
	// Per-worker terms appear in exactly filesPerWorker files.
	for w := 0; w < workers; w++ {
		if got := ix.Lookup(fmt.Sprintf("w%d", w)).Len(); got != filesPerWorker {
			t.Errorf("w%d has %d postings", w, got)
		}
	}
}
