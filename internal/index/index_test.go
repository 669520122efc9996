package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
	terms := termsFrom(ix, "")
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
	bld.AddBlockPositional(1, []string{"cat", "dog"}, []uint32{2, 3}, []uint32{0, 2, 1})
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
		for _, r := range replicas[1:] {
			replicas[0].Join(r)
		}
		return replicas[0].Equal(want)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
