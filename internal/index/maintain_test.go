package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"desksearch/internal/postings"
)

func TestRemoveFile(t *testing.T) {
	ix := New(0)
	ix.AddBlock(1, []string{"shared", "only1"}, nil)
	ix.AddBlock(2, []string{"shared", "only2"}, nil)

	removed := ix.RemoveFile(1)
	if removed != 2 {
		t.Errorf("removed %d postings, want 2", removed)
	}
	if ix.Lookup("only1") != nil {
		t.Error("emptied term survived")
	}
	if l := ix.Lookup("shared"); !reflect.DeepEqual(l.IDs(), []postings.FileID{2}) {
		t.Errorf("shared -> %v", l.IDs())
	}
	if ix.NumPostings() != 2 {
		t.Errorf("NumPostings = %d", ix.NumPostings())
	}
	if ix.NumTerms() != 2 {
		t.Errorf("NumTerms = %d", ix.NumTerms())
	}
}

func TestRemoveFileAbsent(t *testing.T) {
	ix := New(0)
	ix.AddBlock(1, []string{"a"}, nil)
	if got := ix.RemoveFile(99); got != 0 {
		t.Errorf("removed %d from absent file", got)
	}
	if ix.NumPostings() != 1 {
		t.Error("index mutated by absent removal")
	}
}

// Property: removing every file one at a time empties the index, and after
// each removal the index equals one built from scratch without that file.
func TestRemoveFileMatchesRebuild(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := map[postings.FileID][]string{}
		nFiles := 2 + rng.Intn(10)
		for f := 0; f < nFiles; f++ {
			n := 1 + rng.Intn(5)
			seen := map[string]bool{}
			var terms []string
			for len(terms) < n {
				w := fmt.Sprintf("w%d", rng.Intn(8))
				if !seen[w] {
					seen[w] = true
					terms = append(terms, w)
				}
			}
			blocks[postings.FileID(f)] = terms
		}
		ix := New(0)
		for f := 0; f < nFiles; f++ {
			ix.AddBlock(postings.FileID(f), blocks[postings.FileID(f)], nil)
		}
		victim := postings.FileID(rng.Intn(nFiles))
		ix.RemoveFile(victim)

		rebuilt := New(0)
		for f := 0; f < nFiles; f++ {
			if postings.FileID(f) == victim {
				continue
			}
			rebuilt.AddBlock(postings.FileID(f), blocks[postings.FileID(f)], nil)
		}
		return ix.Equal(rebuilt) && ix.NumPostings() == rebuilt.NumPostings()
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRemoveAllFilesEmptiesIndex(t *testing.T) {
	ix := New(0)
	for f := postings.FileID(0); f < 20; f++ {
		ix.AddBlock(f, []string{"common", fmt.Sprintf("f%d", f)}, nil)
	}
	for f := postings.FileID(0); f < 20; f++ {
		ix.RemoveFile(f)
	}
	if ix.NumTerms() != 0 || ix.NumPostings() != 0 {
		t.Errorf("index not empty: %v", ix.Stats())
	}
}

func TestTopTerms(t *testing.T) {
	ix := New(0)
	ix.AddBlock(0, []string{"rare", "common", "medium"}, nil)
	ix.AddBlock(1, []string{"common", "medium"}, nil)
	ix.AddBlock(2, []string{"common"}, nil)
	top := ix.TopTerms(2)
	want := []TermCount{{Term: "common", Files: 3}, {Term: "medium", Files: 2}}
	if !reflect.DeepEqual(top, want) {
		t.Errorf("TopTerms = %v, want %v", top, want)
	}
	if got := ix.TopTerms(0); got != nil {
		t.Errorf("TopTerms(0) = %v", got)
	}
	if got := ix.TopTerms(100); len(got) != 3 {
		t.Errorf("TopTerms(100) returned %d", len(got))
	}
}

func TestTopTermsDeterministicTies(t *testing.T) {
	ix := New(0)
	ix.AddBlock(0, []string{"zebra", "apple", "mango"}, nil)
	top := ix.TopTerms(3)
	if top[0].Term != "apple" || top[1].Term != "mango" || top[2].Term != "zebra" {
		t.Errorf("tie order not alphabetical: %v", top)
	}
}
