package segment

import (
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// edgeIndex builds posting lists with known shapes: a single-posting
// list, a two-posting list with a wide gap, and a dense skip-table-backed
// list (every third file of 3000, count 1+(f/3)%4) whose last ID is 2997.
func edgeIndex(t *testing.T) *index.Index {
	t.Helper()
	bld := index.NewBuilder(false)
	for f := 0; f < 3000; f++ {
		id := postings.FileID(f)
		switch f {
		case 7:
			bld.AddBlock(id, []string{"single"}, []uint32{3})
		case 10:
			bld.AddBlock(id, []string{"pair"}, []uint32{1})
		case 500:
			bld.AddBlock(id, []string{"pair"}, []uint32{2})
		}
		if f%3 == 0 {
			bld.AddBlock(id, []string{"dense"}, []uint32{uint32(1 + (f/3)%4)})
		}
	}
	return bld.Index()
}

// TestPostingIteratorEdgeCases runs the same edge-case battery against
// both Partition backends — the heap index and the lazy segment reader —
// through the index.PostingIterator interface: seeks past and exactly to
// the last ID, single-posting lists, repeated equal seek targets, and
// absent terms. The two backends must agree on every observation.
func TestPostingIteratorEdgeCases(t *testing.T) {
	ix := edgeIndex(t)
	r, err := Open(writeSegment(t, ix), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	denseWant := ix.Lookup("dense") // reference for IDs and counts
	lastID := denseWant.IDs()[denseWant.Len()-1]
	if lastID != 2997 {
		t.Fatalf("fixture last dense ID = %d, want 2997", lastID)
	}

	for _, b := range []struct {
		name string
		p    index.Partition
	}{
		{"heap", ix},
		{"lazy", r},
	} {
		t.Run(b.name, func(t *testing.T) {
			// Absent term: nil iterator, on both backends.
			if it := b.p.Iterator("absent"); it != nil {
				t.Fatal("Iterator(absent) != nil")
			}

			// SeekGE past the last ID exhausts; the cursor stays dead.
			it := b.p.Iterator("dense")
			if it.SeekGE(lastID + 1) {
				t.Fatalf("SeekGE(%d) past last ID = true at %d", lastID+1, it.ID())
			}
			if it.Next() {
				t.Fatal("Next() revived an exhausted cursor")
			}
			if it.SeekGE(0) {
				t.Fatal("SeekGE never moves backwards, even after exhaustion")
			}

			// SeekGE to exactly the last ID lands on it; Next then exhausts.
			it = b.p.Iterator("dense")
			if !it.SeekGE(lastID) || it.ID() != lastID {
				t.Fatalf("SeekGE(last=%d) = %d", lastID, it.ID())
			}
			if want := denseWant.CountAt(denseWant.Len() - 1); it.Count() != want {
				t.Fatalf("Count at last ID = %d, want %d", it.Count(), want)
			}
			if it.Next() {
				t.Fatalf("Next() past the last ID = true at %d", it.ID())
			}

			// Single-posting list: Len, Next-once, seek-to, seek-past.
			it = b.p.Iterator("single")
			if it.Len() != 1 {
				t.Fatalf("single Len() = %d", it.Len())
			}
			if !it.Next() || it.ID() != 7 || it.Count() != 3 {
				t.Fatalf("single Next() = %d count %d, want 7 count 3", it.ID(), it.Count())
			}
			if it.Next() {
				t.Fatal("single list yielded a second posting")
			}
			it = b.p.Iterator("single")
			if !it.SeekGE(7) || it.ID() != 7 {
				t.Fatalf("single SeekGE(7) = %d", it.ID())
			}
			if b.p.Iterator("single").SeekGE(8) {
				t.Fatal("single SeekGE(8) found a posting past the only ID")
			}

			// Repeated SeekGE with equal targets is a stable no-op, and a
			// smaller target after a larger one never rewinds.
			it = b.p.Iterator("dense")
			if !it.SeekGE(1500) {
				t.Fatal("SeekGE(1500) exhausted")
			}
			at := it.ID()
			for i := 0; i < 3; i++ {
				if !it.SeekGE(1500) || it.ID() != at {
					t.Fatalf("repeat SeekGE(1500) #%d moved %d -> %d", i, at, it.ID())
				}
				if !it.SeekGE(at) || it.ID() != at {
					t.Fatalf("SeekGE(current) #%d moved %d -> %d", i, at, it.ID())
				}
			}
			if !it.SeekGE(9) || it.ID() != at {
				t.Fatalf("SeekGE(9) rewound %d -> %d", at, it.ID())
			}

			// A two-posting list with a wide gap: the gap has no posting.
			it = b.p.Iterator("pair")
			if !it.SeekGE(11) || it.ID() != 500 || it.Count() != 2 {
				t.Fatalf("pair SeekGE(11) = %d count %d, want 500 count 2", it.ID(), it.Count())
			}

			// MaxCount is an upper bound on every Count, or the explicit
			// no-bound sentinel — never an underestimate.
			it = b.p.Iterator("dense")
			mc := it.MaxCount()
			for it.Next() {
				if mc != postings.NoMaxCount && it.Count() > mc {
					t.Fatalf("Count %d at %d exceeds MaxCount %d", it.Count(), it.ID(), mc)
				}
			}
		})
	}
}

// TestLazyIteratorCountWithoutDecode pins the lazy backend's cost
// contract for the Count path: SeekGE deep into a list whose posting
// block was never materialized must report the correct term frequency
// while decoding zero whole posting blocks — Count streams the frequency
// section, it does not fall back to Lookup.
func TestLazyIteratorCountWithoutDecode(t *testing.T) {
	ix := edgeIndex(t)
	r, err := Open(writeSegment(t, ix), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	want := ix.Lookup("dense")
	for _, target := range []postings.FileID{0, 999, 1500, 2400, 2997} {
		it := r.Iterator("dense")
		if !it.SeekGE(target) {
			t.Fatalf("SeekGE(%d) exhausted", target)
		}
		// Reference count from the heap list at the landed ID.
		i := 0
		for want.IDs()[i] < it.ID() {
			i++
		}
		if want.IDs()[i] != it.ID() {
			t.Fatalf("SeekGE(%d) landed on %d, not a real posting", target, it.ID())
		}
		if got := it.Count(); got != want.CountAt(i) {
			t.Fatalf("Count after SeekGE(%d) = %d, want %d", target, got, want.CountAt(i))
		}
	}
	if n := r.BlockDecodes(); n != 0 {
		t.Fatalf("streaming Count decoded %d posting blocks, want 0", n)
	}

	// The empty heap-side cursor contract rides the same seam: an
	// explicitly empty list yields an iterator that is exhausted from the
	// start on both Next and SeekGE.
	empty := postings.NewIterator(postings.FromSortedIDs(nil))
	if empty.Next() || empty.SeekGE(0) || empty.Len() != 0 {
		t.Fatal("iterator over an empty list produced a posting")
	}
}
