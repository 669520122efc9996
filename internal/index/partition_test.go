package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"desksearch/internal/postings"
)

// TestSortedTermIteration pins the Partition iteration contract the lazy
// backend relies on: Range and TermsFrom walk the dictionary in
// ascending order, across interleaved mutation and removal, so prefix
// expansion and suggestions are deterministic on every backend.
func TestSortedTermIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := New(8)
	want := map[string]bool{}
	bld := NewBuilder(false)
	for i := 0; i < 300; i++ {
		term := fmt.Sprintf("t%02d", rng.Intn(60))
		bld.AddBlock(postings.FileID(i), []string{term}, nil)
		ix.Join(bld.Index())
		want[term] = true

		if i%37 == 0 { // interleave iteration with mutation
			terms := termsFrom(ix, "")
			if !sort.StringsAreSorted(terms) {
				t.Fatalf("Terms unsorted after %d adds: %v", i+1, terms)
			}
		}
	}

	terms := termsFrom(ix, "")
	if len(terms) != len(want) {
		t.Fatalf("Terms has %d entries, want %d", len(terms), len(want))
	}
	if !sort.StringsAreSorted(terms) {
		t.Fatalf("Terms unsorted: %v", terms)
	}

	var ranged []string
	ix.Range(func(term string, l *postings.List) bool {
		ranged = append(ranged, term)
		return true
	})
	if fmt.Sprint(ranged) != fmt.Sprint(terms) {
		t.Fatalf("Range order %v != Terms order %v", ranged, terms)
	}

	// TermsFrom seeks: from a term mid-dictionary, and from a prefix that
	// is not itself a term.
	mid := terms[len(terms)/2]
	var fromMid []string
	w := ix.TermsFrom(mid)
	for term, df, ok := w.Next(); ok; term, df, ok = w.Next() {
		if df != ix.DocFreq(term) {
			t.Fatalf("TermsFrom df for %q = %d, want %d", term, df, ix.DocFreq(term))
		}
		fromMid = append(fromMid, term)
	}
	if fmt.Sprint(fromMid) != fmt.Sprint(terms[len(terms)/2:]) {
		t.Fatalf("TermsFrom(%q) = %v, want suffix %v", mid, fromMid, terms[len(terms)/2:])
	}
	first, _, _ := ix.TermsFrom("t").Next()
	if first != terms[0] {
		t.Fatalf("TermsFrom(\"t\") starts at %q, want %q", first, terms[0])
	}

	// Removal keeps iteration sorted and drops emptied terms.
	all := ix.Docs().IDs()
	ix.RemoveFiles(postings.FromSortedIDs(all[:len(all)/2]))
	after := termsFrom(ix, "")
	if !sort.StringsAreSorted(after) {
		t.Fatalf("Terms unsorted after RemoveFiles: %v", after)
	}
	for _, term := range after {
		if ix.Lookup(term).Len() == 0 {
			t.Fatalf("emptied term %q still listed", term)
		}
	}
}

// TestPartitionsAdapter checks the []*Index → []Partition bridge.
func TestPartitionsAdapter(t *testing.T) {
	bld := NewBuilder(false)
	bld.AddBlock(1, []string{"alpha"}, nil)
	a := bld.Index()
	bld.AddBlock(2, []string{"beta"}, nil)
	b := bld.Index()
	parts := Partitions([]*Index{a, b})
	if len(parts) != 2 {
		t.Fatalf("Partitions len %d, want 2", len(parts))
	}
	if parts[0].DocFreq("alpha") != 1 || parts[1].DocFreq("beta") != 1 {
		t.Fatal("adapter does not expose the underlying indices")
	}
	if parts[0].ResidentBytes() <= 0 {
		t.Fatal("ResidentBytes reported nothing for a non-empty index")
	}
	// Docs must be a fresh list the caller may mutate.
	d := parts[0].Docs()
	d.Merge(postings.FromSortedIDs([]postings.FileID{9}))
	if parts[0].Docs().Len() != 1 {
		t.Fatal("mutating the returned Docs list leaked into the index")
	}
}

// termsFrom returns the terms p's TermsFrom(from) cursor walks, in order.
func termsFrom(p Partition, from string) []string {
	var out []string
	w := p.TermsFrom(from)
	for term, _, ok := w.Next(); ok; term, _, ok = w.Next() {
		out = append(out, term)
	}
	return out
}
