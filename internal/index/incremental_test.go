package index

import (
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

	if got := ft.LiveIDs(nil); !reflect.DeepEqual(got, []postings.FileID{a, b2}) {
		t.Errorf("LiveIDs = %v, want [%d %d]", got, a, b2)
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
		ix := New(16)
		ix.AddBlock(0, []string{"a", "b", "c"}, nil)
		ix.AddBlock(1, []string{"b", "c"}, nil)
		ix.AddBlock(2, []string{"c", "d"}, nil)
		ix.AddBlock(3, []string{"d", "e"}, nil)
		return ix
	}
	batched := build()
	victims := postings.FromIDs([]postings.FileID{1, 3})
	removedBatch := batched.RemoveFiles(victims)

	oneByOne := build()
	removedSeq := oneByOne.RemoveFile(1) + oneByOne.RemoveFile(3)

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
// not an equal copy — so an update's allocation follows the lists it
// changes, not the size of the dictionary.
func TestRemoveFilesKeepsUntouchedLists(t *testing.T) {
	ix := New(16)
	ix.AddBlockPositional(0, []string{"a", "b"}, [][]uint32{{0}, {1}})
	ix.AddBlockPositional(1, []string{"b", "c"}, [][]uint32{{0}, {1}})
	ix.AddBlockPositional(2, []string{"c", "d"}, [][]uint32{{0, 2}, {1}})
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
	if l := ix.Lookup("c"); l == before["c"] || l.Len() != 1 || !l.Contains(1) {
		t.Errorf("term c: touched list not rebuilt correctly: %v", l.IDs())
	}
	if ix.Lookup("d") != nil {
		t.Error("emptied term d survived")
	}
	allocs := testing.AllocsPerRun(10, func() {
		ix.RemoveFiles(postings.FromSortedIDs([]postings.FileID{7, 9}))
	})
	// One for the victims list's ids, one for the list itself: none per
	// term scanned.
	if allocs > 2 {
		t.Errorf("a removal that hits nothing allocated %v times", allocs)
	}
}

// TestTopTermsAcrossMatchesJoin: aggregation over document-disjoint
// partitions must equal TopTerms over their join, without building one.
func TestTopTermsAcrossMatchesJoin(t *testing.T) {
	parts := []*Index{New(8), New(8), New(8)}
	blocks := [][]string{
		{"common", "rare"},
		{"common", "mid"},
		{"common", "mid"},
		{"common"},
		{"solo"},
	}
	for i, terms := range blocks {
		parts[i%len(parts)].AddBlock(postings.FileID(i), terms, nil)
	}
	// The join is built from the same blocks: JoinAll would consume parts.
	joined := New(8)
	for i, terms := range blocks {
		joined.AddBlock(postings.FileID(i), terms, nil)
	}

	for _, n := range []int{1, 3, 10} {
		got := TopTermsAcross(Partitions(parts), n)
		want := joined.TopTerms(n)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: TopTermsAcross = %v, join = %v", n, got, want)
		}
	}
	if TopTermsAcross(Partitions(parts), 0) != nil || TopTermsAcross(nil, 3) != nil {
		t.Error("degenerate TopTermsAcross not nil")
	}
	// Single partition takes the direct path.
	if got := TopTermsAcross(Partitions(parts[:1]), 2); !reflect.DeepEqual(got, parts[0].TopTerms(2)) {
		t.Errorf("single-partition path diverged: %v", got)
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

	got, err := loadTables(savedTables(t, ft))
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
