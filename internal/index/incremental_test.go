package index

import (
	"fmt"
	"reflect"
	"testing"

	"desksearch/internal/postings"
)

func TestFileTableTombstones(t *testing.T) {
	ft := NewFileTable()
	a := ft.Add("a.txt", 10, 1)
	b := ft.Add("b.txt", 20, 2)
	if ft.LiveCount() != 2 || !ft.Live(a) || !ft.Live(b) {
		t.Fatalf("fresh table: live=%d", ft.LiveCount())
	}
	if id, ok := ft.Lookup("b.txt"); !ok || id != b {
		t.Fatalf("Lookup(b.txt) = %d, %v", id, ok)
	}

	ft.Tombstone(b)
	if ft.Live(b) || ft.LiveCount() != 1 || ft.Len() != 2 {
		t.Errorf("after tombstone: live(b)=%v liveCount=%d len=%d", ft.Live(b), ft.LiveCount(), ft.Len())
	}
	if _, ok := ft.Lookup("b.txt"); ok {
		t.Error("tombstoned path still resolvable")
	}
	ft.Tombstone(b) // idempotent
	if ft.LiveCount() != 1 {
		t.Error("double tombstone changed the live count")
	}

	// Re-creating the path registers a fresh ID; the old slot stays dead.
	b2 := ft.Add("b.txt", 30, 3)
	if b2 == b {
		t.Fatal("FileID reused")
	}
	if id, ok := ft.Lookup("b.txt"); !ok || id != b2 {
		t.Errorf("Lookup after re-add = %d, %v; want %d", id, ok, b2)
	}
	// Tombstoning the old ID again must not unhook the new registration.
	ft.Tombstone(b)
	if _, ok := ft.Lookup("b.txt"); !ok {
		t.Error("re-tombstoning a dead ID broke the live path's lookup")
	}

	for id, want := range map[postings.FileID]bool{a: true, b: false, b2: true} {
		if ft.Live(id) != want {
			t.Errorf("Live(%d) = %v, want %v", id, !want, want)
		}
	}
}

func TestFileTableSetMeta(t *testing.T) {
	ft := NewFileTable()
	id := ft.Add("a.txt", 10, 1)
	ft.SetMeta(id, 99, 7)
	if ft.Size(id) != 99 || ft.ModTime(id) != 7 {
		t.Errorf("SetMeta: size=%d mtime=%d", ft.Size(id), ft.ModTime(id))
	}
}

// TestRemoveFilesMatchesSequentialRemoves: one batched scan must leave the
// index exactly as removing the victims one at a time would.
func TestRemoveFilesMatchesSequentialRemoves(t *testing.T) {
	build := func() *Index {
		bld := NewBuilder(false)
		bld.AddBlock(0, []string{"a", "b", "c"}, nil)
		bld.AddBlock(1, []string{"b", "c"}, nil)
		bld.AddBlock(2, []string{"c", "d"}, nil)
		bld.AddBlock(3, []string{"d", "e"}, nil)
		return bld.Index()
	}
	batched := build()
	victims := postings.FromIDs([]postings.FileID{1, 3})
	removedBatch := batched.RemoveFiles(victims)

	oneByOne := build()
	removedSeq := oneByOne.RemoveFiles(postings.FromIDs([]postings.FileID{1}))
	removedSeq += oneByOne.RemoveFiles(postings.FromIDs([]postings.FileID{3}))

	if removedBatch != removedSeq {
		t.Errorf("removed %d postings batched, %d sequentially", removedBatch, removedSeq)
	}
	if !batched.Equal(oneByOne) {
		t.Error("batched removal diverged from sequential removal")
	}
	if batched.NumPostings() != oneByOne.NumPostings() {
		t.Errorf("postings: %d vs %d", batched.NumPostings(), oneByOne.NumPostings())
	}
	// "e" was only in file 3 and must be gone entirely.
	if batched.Lookup("e") != nil {
		t.Error("emptied term survived batched removal")
	}
	// Removing absent files is a no-op.
	if got := batched.RemoveFiles(postings.FromIDs([]postings.FileID{42})); got != 0 {
		t.Errorf("removing absent file removed %d postings", got)
	}
	if got := batched.RemoveFiles(nil); got != 0 {
		t.Errorf("nil victims removed %d postings", got)
	}
}

// TestRemoveFilesKeepsUntouchedLists: an update that touches none of a
// term's files must leave that term's list alone — same *postings.List,
// not an equal copy — and one that touches it edits it in place, so an
// update allocates nothing per list, touched or not.
func TestRemoveFilesKeepsUntouchedLists(t *testing.T) {
	bld := NewBuilder(true)
	bld.AddBlockPositional(0, []string{"a", "b"}, []uint32{1, 2}, []uint32{0, 1})
	bld.AddBlockPositional(1, []string{"b", "c"}, []uint32{1, 2}, []uint32{0, 1})
	bld.AddBlockPositional(2, []string{"c", "d"}, []uint32{2, 3}, []uint32{0, 2, 1})
	ix := bld.Index()
	before := map[string]*postings.List{}
	for _, term := range []string{"a", "b", "c", "d"} {
		before[term] = ix.Lookup(term)
	}
	if got := ix.RemoveFiles(postings.FromIDs([]postings.FileID{2, 7})); got != 2 {
		t.Fatalf("removed %d postings, want 2", got)
	}
	for _, term := range []string{"a", "b"} {
		if ix.Lookup(term) != before[term] {
			t.Errorf("term %q: untouched list was replaced", term)
		}
	}
	if l := ix.Lookup("c"); l != before["c"] || l.Len() != 1 || !l.Contains(1) || l.CountAt(0) != 1 {
		t.Errorf("term c: touched list not edited in place correctly: %v", l.IDs())
	}
	if ix.Lookup("d") != nil {
		t.Error("emptied term d survived")
	}
	allocs := testing.AllocsPerRun(10, func() {
		ix.RemoveFiles(postings.FromSortedIDs([]postings.FileID{7, 9}))
	})
	// One for the victims list's ids, one for the list itself and one for
	// the bitmap of their marks: none per term scanned.
	if allocs > 3 {
		t.Errorf("a removal that hits nothing allocated %v times", allocs)
	}
}

// TestTopTermsAcrossMatchesJoin: aggregation over document-disjoint
// partitions must equal TopTerms over their join, without building one.
func TestTopTermsAcrossMatchesJoin(t *testing.T) {
	bld := []*Builder{NewBuilder(false), NewBuilder(false), NewBuilder(false)}
	blocks := [][]string{
		{"common", "rare"},
		{"common", "mid"},
		{"common", "mid"},
		{"common"},
		{"solo"},
	}
	for i, terms := range blocks {
		bld[i%len(bld)].AddBlock(postings.FileID(i), terms, nil)
	}
	parts := []*Index{bld[0].Index(), bld[1].Index(), bld[2].Index()}
	// The join is built from the same blocks: Join would consume parts.
	for i, terms := range blocks {
		bld[0].AddBlock(postings.FileID(i), terms, nil)
	}
	joined := bld[0].Index()

	for _, n := range []int{1, 3, 10} {
		got := TopTermsAcross(Partitions(parts), "", n)
		want := TopTermsAcross([]Partition{joined}, "", n)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: TopTermsAcross = %v, join = %v", n, got, want)
		}
	}
	if TopTermsAcross(Partitions(parts), "", 0) != nil || TopTermsAcross(nil, "", 3) != nil {
		t.Error("degenerate TopTermsAcross not nil")
	}
	// One partition: files 0 and 3 hold common, file 0 rare.
	if got, want := TopTermsAcross(Partitions(parts[:1]), "", 2), []TermCount{{"common", 2}, {"rare", 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("one partition: TopTermsAcross = %v, want %v", got, want)
	}
}

// TestTermAggregationAllocsIndependentOfTerms: DistinctTermsAcross and
// TopTermsAcross merge the partitions' ascending walks and keep no table
// of terms, so four partitions of 100 terms and of 10 000 terms cost them
// the same number of allocations, as do prefixes matching 100 and 10 000
// terms — and the merge counts each term once, however many partitions
// hold it.
func TestTermAggregationAllocsIndependentOfTerms(t *testing.T) {
	build := func(terms int) []Partition {
		parts := make([]*Index, 4)
		for p := range parts {
			b := NewBuilder(false)
			// Partition p holds the terms i with i%4 != p: each term is
			// in three partitions, one file each.
			for i := 0; i < terms; i++ {
				if i%4 != p {
					b.AddBlock(postings.FileID(i*4+p), []string{fmt.Sprintf("t%05d", i)}, nil)
				}
			}
			parts[p] = b.Index()
		}
		return Partitions(parts)
	}
	allocs := func(terms int) (distinct, top float64) {
		parts := build(terms)
		if got := DistinctTermsAcross(parts); got != terms {
			t.Fatalf("%d terms: DistinctTermsAcross = %d", terms, got)
		}
		if got := TopTermsAcross(parts, "", 2); len(got) != 2 || got[0] != (TermCount{"t00000", 3}) || got[1] != (TermCount{"t00001", 3}) {
			t.Fatalf("%d terms: TopTermsAcross = %v", terms, got)
		}
		distinct = testing.AllocsPerRun(5, func() { DistinctTermsAcross(parts) })
		top = testing.AllocsPerRun(5, func() { TopTermsAcross(parts, "", 5) })
		return distinct, top
	}
	fewDistinct, fewTop := allocs(100)
	manyDistinct, manyTop := allocs(10_000)
	if fewDistinct != manyDistinct || fewTop != manyTop {
		t.Fatalf("allocations over 100 terms: DistinctTermsAcross %v, TopTermsAcross %v; over 10 000: %v, %v",
			fewDistinct, fewTop, manyDistinct, manyTop)
	}
	// Over a prefix, the merge walks only the terms that carry it, and
	// keeps no more of them: over 10 000 terms, "t000" matches 100 of them
	// and "t" all, at the same cost.
	parts := build(10_000)
	if got := TopTermsAcross(parts, "t0001", 2); len(got) != 2 || got[0] != (TermCount{"t00010", 3}) || got[1] != (TermCount{"t00011", 3}) {
		t.Fatalf("TopTermsAcross over t0001 = %v", got)
	}
	narrow := testing.AllocsPerRun(5, func() { TopTermsAcross(parts, "t000", 5) })
	broad := testing.AllocsPerRun(5, func() { TopTermsAcross(parts, "t", 5) })
	if narrow != broad {
		t.Fatalf("allocations of TopTermsAcross over 100 matching terms: %v; over 10 000: %v", narrow, broad)
	}
}

// TestSaveLoadPreservesTombstones: tombstones and modification stamps must
// survive the codec, or a reloaded catalog would resurrect deleted files
// and re-extract everything on its first update.
func TestSaveLoadPreservesTombstones(t *testing.T) {
	ft := NewFileTable()
	ft.Add("a.txt", 10, 100)
	b := ft.Add("b.txt", 20, 200)
	c := ft.Add("c.txt", 30, 300)
	ft.Tombstone(b)

	got, err := loadTables(savedTables(ft))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.LiveCount() != 2 {
		t.Fatalf("len=%d live=%d, want 3/2", got.Len(), got.LiveCount())
	}
	if got.Live(b) {
		t.Error("tombstone lost in round trip")
	}
	if _, ok := got.Lookup("b.txt"); ok {
		t.Error("tombstoned path resolvable after reload")
	}
	if got.ModTime(c) != 300 || got.Size(c) != 30 {
		t.Errorf("metadata lost: size=%d mtime=%d", got.Size(c), got.ModTime(c))
	}
}
