package postings

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// positional builds a positional list from (id, positions) pairs given in
// arbitrary order, exercising AddPositions' insert paths.
func positional(pairs map[FileID][]uint32, order []FileID) *List {
	l := &List{}
	for _, id := range order {
		l.AddPositions(id, append([]uint32(nil), pairs[id]...))
	}
	return l
}

func TestAddPositionsOrderings(t *testing.T) {
	pairs := map[FileID][]uint32{
		2:  {0, 7},
		5:  {3},
		9:  {1, 2, 8},
		11: {4},
	}
	inOrder := positional(pairs, []FileID{2, 5, 9, 11})
	outOfOrder := positional(pairs, []FileID{9, 2, 11, 5})
	if !inOrder.Equal(outOfOrder) {
		t.Fatal("insertion order changed the list")
	}
	if got := inOrder.IDs(); !reflect.DeepEqual(got, []FileID{2, 5, 9, 11}) {
		t.Fatalf("ids = %v", got)
	}
	if !inOrder.HasPositions() {
		t.Fatal("list lost its positions")
	}
	for i, id := range inOrder.IDs() {
		if got := inOrder.PositionsAt(i); !reflect.DeepEqual(got, pairs[id]) {
			t.Errorf("positions of %d = %v, want %v", id, got, pairs[id])
		}
		if got, want := inOrder.CountAt(i), uint32(len(pairs[id])); got != want {
			t.Errorf("count of %d = %d, want %d", id, got, want)
		}
	}
}

func TestAddPositionsDuplicateIDMergesPositions(t *testing.T) {
	l := &List{}
	l.AddPositions(4, []uint32{1, 5})
	l.AddPositions(4, []uint32{3, 5, 9})
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
	if got := l.PositionsAt(0); !reflect.DeepEqual(got, []uint32{1, 3, 5, 9}) {
		t.Fatalf("merged positions = %v", got)
	}
}

func TestMergePositional(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0}, 5: {2, 4}}, []FileID{1, 5})
	b := positional(map[FileID][]uint32{3: {1}, 8: {0, 9}}, []FileID{3, 8})
	merged := a.Clone().Merge(b)
	if !merged.HasPositions() {
		t.Fatal("union of positional lists dropped positions")
	}
	want := positional(map[FileID][]uint32{1: {0}, 3: {1}, 5: {2, 4}, 8: {0, 9}},
		[]FileID{1, 3, 5, 8})
	if !merged.Equal(want) {
		t.Fatalf("merged = %v positions mismatch", merged.IDs())
	}

	// Overlapping posting: position sets union.
	c := positional(map[FileID][]uint32{5: {1, 4}}, []FileID{5})
	overlap := a.Clone().Merge(c)
	i := 1 // id 5 is the second posting
	if got := overlap.PositionsAt(i); !reflect.DeepEqual(got, []uint32{1, 2, 4}) {
		t.Fatalf("overlap positions = %v", got)
	}
}

func TestMergeMixedDemotesToCounts(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0, 3}}, []FileID{1})
	b := FromSortedIDCounts([]FileID{2}, []uint32{5})
	merged := a.Clone().Merge(b)
	if merged.HasPositions() {
		t.Fatal("mixed merge kept positions for a list that cannot have them uniformly")
	}
	// Frequencies survive the demotion on both sides.
	if got := merged.CountOf(1); got != 2 {
		t.Errorf("count of 1 = %d, want 2", got)
	}
	if got := merged.CountOf(2); got != 5 {
		t.Errorf("count of 2 = %d, want 5", got)
	}
}

func TestDifferencePreservesPositions(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0}, 2: {1, 2}, 3: {5}}, []FileID{1, 2, 3})
	rest := Difference(a, FromIDs([]FileID{2}))
	if !rest.HasPositions() {
		t.Fatal("difference dropped positions")
	}
	want := positional(map[FileID][]uint32{1: {0}, 3: {5}}, []FileID{1, 3})
	if !rest.Equal(want) {
		t.Fatalf("difference = %v", rest.IDs())
	}
	// Removing everything yields a canonical empty list.
	empty := Difference(a, FromIDs([]FileID{1, 2, 3}))
	if empty.Len() != 0 || empty.HasPositions() {
		t.Fatal("empty difference is not canonical")
	}
}

func TestCloneAndWithoutCountsPositional(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0, 2}}, []FileID{1})
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone differs")
	}
	c.AddPositions(1, []uint32{7})
	if a.CountAt(0) != 2 {
		t.Fatal("mutating the clone changed the original")
	}
	v := a.WithoutCounts()
	if v.HasPositions() || v.CountAt(0) != 1 {
		t.Fatal("WithoutCounts view still carries payload")
	}
}

func TestPositionalEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &List{}
		id := FileID(0)
		n := 1 + rng.Intn(20)
		for f := 0; f < n; f++ {
			id += FileID(1 + rng.Intn(5))
			pos := make([]uint32, 0, 4)
			p := uint32(0)
			for k := 0; k <= rng.Intn(4); k++ {
				p += uint32(1 + rng.Intn(10))
				pos = append(pos, p)
			}
			l.AddPositions(id, pos)
		}
		buf := l.EncodePositional(nil)
		got, consumed, err := DecodePositional(buf)
		if err != nil || consumed != len(buf) {
			return false
		}
		return got.Equal(l)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncodePositionalAbsentMarker(t *testing.T) {
	// A non-positional list in a positional frame round-trips through the
	// posAbsent marker with frequencies intact.
	l := FromSortedIDCounts([]FileID{1, 4}, []uint32{3, 1})
	buf := l.EncodePositional(nil)
	got, consumed, err := DecodePositional(buf)
	if err != nil || consumed != len(buf) {
		t.Fatalf("decode: %v (consumed %d of %d)", err, consumed, len(buf))
	}
	if got.HasPositions() || !got.Equal(l) {
		t.Fatal("posAbsent round trip mismatch")
	}
}

func TestDecodePositionalRejectsCorruption(t *testing.T) {
	l := positional(map[FileID][]uint32{1: {0, 2}, 7: {1}}, []FileID{1, 7})
	pristine := l.EncodePositional(nil)
	// Truncations anywhere must fail (never panic); byte flips must either
	// fail or at least not panic — some flips produce a different valid
	// list, which the frame checksum catches one layer up (see
	// internal/index codec tests).
	for n := 0; n < len(pristine); n++ {
		if _, _, err := DecodePositional(pristine[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	for i := range pristine {
		corrupt := append([]byte(nil), pristine...)
		corrupt[i] ^= 0xFF
		DecodePositional(corrupt) // must not panic
	}
	// A zero delta in a position run is a duplicate and must be rejected.
	dup := &List{}
	dup.AddPositions(1, []uint32{3, 3})
	if got := dup.PositionsAt(0); len(got) != 1 {
		t.Fatalf("AddPositions kept duplicate positions: %v", got)
	}
}

// TestDecodePositionalAllocations is the flat-decode claim as a count:
// however many postings and positions a list has, decoding it allocates
// the list, its IDs, the per-posting subslice headers and one flat
// position slice — not one slice per posting.
func TestDecodePositionalAllocations(t *testing.T) {
	for _, counted := range []bool{false, true} {
		l := &List{}
		for f := 0; f < 500; f++ {
			pos := []uint32{uint32(f)}
			if counted {
				pos = append(pos, uint32(f)+3, uint32(f)+9)
			}
			l.AddPositions(FileID(2*f+1), pos)
		}
		buf := l.EncodePositional(nil)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := DecodePositional(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("counted=%v: DecodePositional of a 500-posting list allocates %.0f times, want <= 4", counted, allocs)
		}
	}
}

// TestDecodePositionalRunsAreCapped checks the subslices handed out over
// the flat position slice cannot grow into each other: a merge that
// appends to one posting's run must leave the next posting's intact.
func TestDecodePositionalRunsAreCapped(t *testing.T) {
	l := positional(map[FileID][]uint32{1: {0, 2}, 7: {1, 5}}, []FileID{1, 7})
	got, _, err := DecodePositional(l.EncodePositional(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Len(); i++ {
		if p := got.PositionsAt(i); cap(p) != len(p) {
			t.Fatalf("posting %d: run has len %d cap %d", i, len(p), cap(p))
		}
	}
	_ = append(got.PositionsAt(0), 99)
	if p := got.PositionsAt(1); p[0] != 1 || p[1] != 5 {
		t.Fatalf("append through posting 0 overwrote posting 1: %v", p)
	}
}

// TestDecodeStopsBeforePositions pins what the counts tier of a lazy
// segment rides: Decode on a positional encoding returns the IDs and
// frequencies and consumes nothing of the positions section.
func TestDecodeStopsBeforePositions(t *testing.T) {
	l := positional(map[FileID][]uint32{2: {0, 4, 8}, 9: {1}}, []FileID{2, 9})
	buf := l.EncodePositional(nil)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(l.Encode(nil)); n != want {
		t.Fatalf("Decode consumed %d bytes, the base encoding is %d", n, want)
	}
	if got.HasPositions() {
		t.Fatal("Decode returned positions")
	}
	for i, id := range l.IDs() {
		if got.IDs()[i] != id || got.CountAt(i) != l.CountAt(i) {
			t.Fatalf("posting %d: got (%d, %d), want (%d, %d)", i, got.IDs()[i], got.CountAt(i), id, l.CountAt(i))
		}
	}
}

// TestEncodeBytesStable pins the non-positional encoding byte for byte:
// the positional feature must leave non-positional output byte-identical,
// so this golden value must never change.
func TestEncodeBytesStable(t *testing.T) {
	l := FromSortedIDCounts([]FileID{3, 5, 300}, []uint32{1, 4, 1})
	got := l.Encode(nil)
	want := []byte{
		0x03,       // 3 postings
		0x03,       // id 3
		0x02,       // delta to 5
		0xa7, 0x02, // delta 295 to 300
		0x01,             // frequency marker: counted
		0x00, 0x03, 0x00, // frequencies 1, 4, 1 biased by -1
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding changed: %#v", got)
	}
	boolList := FromSortedIDs([]FileID{1, 2})
	if gotB := boolList.Encode(nil); !bytes.Equal(gotB, []byte{0x02, 0x01, 0x01, 0x00}) {
		t.Fatalf("boolean encoding changed: %#v", gotB)
	}
}

func TestEncodedSizePositional(t *testing.T) {
	l := positional(map[FileID][]uint32{2: {0, 4}, 9: {1}}, []FileID{2, 9})
	if got, want := l.EncodedSize(), len(l.Encode(nil)); got != want {
		t.Fatalf("EncodedSize = %d, Encode produced %d", got, want)
	}
}
