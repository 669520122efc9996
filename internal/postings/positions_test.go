package postings

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// positional builds a positional list from (id, positions) pairs.
func positional(pairs map[FileID][]uint32) *List {
	ids := slices.Sorted(maps.Keys(pairs))
	runs := make([][]uint32, len(ids))
	for i, id := range ids {
		runs[i] = pairs[id]
	}
	return FromSortedIDPositions(ids, runs)
}

func TestMergePositional(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0}, 5: {2, 4}})
	b := positional(map[FileID][]uint32{3: {1}, 8: {0, 9}})
	merged := a.Clone().Merge(b)
	if !merged.HasPositions() {
		t.Fatal("union of positional lists dropped positions")
	}
	want := positional(map[FileID][]uint32{1: {0}, 3: {1}, 5: {2, 4}, 8: {0, 9}})
	if !merged.Equal(want) {
		t.Fatalf("merged = %v positions mismatch", merged.IDs())
	}

	// Overlapping posting: position sets union.
	c := positional(map[FileID][]uint32{5: {1, 4}})
	overlap := a.Clone().Merge(c)
	i := 1 // id 5 is the second posting
	if got := overlap.PositionsAt(i); !reflect.DeepEqual(got, []uint32{1, 2, 4}) {
		t.Fatalf("overlap positions = %v", got)
	}
}

func TestMergeMixedDemotesToCounts(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0, 3}})
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

func TestClonePositional(t *testing.T) {
	a := positional(map[FileID][]uint32{1: {0, 2}})
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone differs")
	}
	c.Merge(positional(map[FileID][]uint32{1: {7}}))
	if a.CountAt(0) != 2 {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestPositionalEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ids []FileID
		var runs [][]uint32
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
			ids, runs = append(ids, id), append(runs, pos)
		}
		l := FromSortedIDPositions(ids, runs)
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
	l := positional(map[FileID][]uint32{1: {0, 2}, 7: {1}})
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
}

// sinkList keeps a list allocated in a measurement on the heap.
var sinkList *List

// allocatedPerRun returns the heap bytes f allocates per call over runs
// calls, from runtime.MemStats.TotalAlloc: the allocator's bytes, size
// classes included. Like testing.AllocsPerRun it warms f up with one call
// and pins GOMAXPROCS to 1 while it measures. Allocations that are not
// f's (the race detector's, the runtime's) can only add to a round, so it
// reports the least of five.
func allocatedPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := math.Inf(1)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return least
}

// listStructBytes is what the allocator spends on a List struct alone.
func listStructBytes() float64 {
	return allocatedPerRun(100, func() { sinkList = new(List) })
}

// TestDecodePositionalAllocations is the flat-decode claim as counts:
// however many postings and positions a list has, decoding it allocates
// the list, its IDs, its run ends and one flat position slice — not one
// slice per posting — and four bytes per ID, per run end and per
// position beside the List struct, where a slice header per posting
// would add 24. The lists have 512 postings of one or three positions,
// so every column fills its allocator size class exactly.
func TestDecodePositionalAllocations(t *testing.T) {
	structBytes := listStructBytes()
	for _, counted := range []bool{false, true} {
		pairs := map[FileID][]uint32{}
		positions := 0
		for f := 0; f < 512; f++ {
			pos := []uint32{uint32(f)}
			if counted {
				pos = append(pos, uint32(f)+3, uint32(f)+9)
			}
			positions += len(pos)
			pairs[FileID(2*f+1)] = pos
		}
		l := positional(pairs)
		buf := l.EncodePositional(nil)
		decode := func() {
			var err error
			if sinkList, _, err = DecodePositional(buf); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, decode); allocs > 4 {
			t.Errorf("counted=%v: DecodePositional of a 512-posting list allocates %.0f times, want <= 4", counted, allocs)
		}
		bound := structBytes + 4*float64(l.Len()+l.Len()+positions)
		if bytes := allocatedPerRun(20, decode); bytes > bound {
			t.Errorf("counted=%v: DecodePositional of a 512-posting list allocates %.0f bytes, want <= %.0f (4 per ID, run end and position, and the List)",
				counted, bytes, bound)
		}
	}
}

// TestHeapBytesMatchDecode holds HeapBytes to the allocator: what a
// decoded positional list and a decoded counted list report of their own
// storage is what their decodes allocate, less the List struct. Each
// column fills its size class exactly (2048 postings, two positions or a
// frequency of 2 each), so the figures agree to the byte.
func TestHeapBytesMatchDecode(t *testing.T) {
	structBytes := listStructBytes()
	runs, counted := map[FileID][]uint32{}, &List{}
	for f := 0; f < 2048; f++ {
		runs[FileID(3*f)] = []uint32{uint32(f), uint32(f) + 5}
		counted.AddN(FileID(3*f), 2)
	}
	for _, tc := range []struct {
		name   string
		buf    []byte
		decode func([]byte) (*List, int, error)
	}{
		{"positional", positional(runs).EncodePositional(nil), DecodePositional},
		{"counted", counted.Encode(nil), Decode},
	} {
		l, _, err := tc.decode(tc.buf)
		if err != nil {
			t.Fatal(err)
		}
		allocated := allocatedPerRun(50, func() { sinkList, _, _ = tc.decode(tc.buf) })
		if got := float64(l.HeapBytes()); got != allocated-structBytes {
			t.Errorf("%s: HeapBytes reports %.0f, the decode allocates %.0f beside the %.0f-byte List",
				tc.name, got, allocated-structBytes, structBytes)
		}
	}
}

// TestDecodePositionalRunsAreCapped checks the subslices handed out over
// the flat position slice cannot grow into each other: a merge that
// appends to one posting's run must leave the next posting's intact.
func TestDecodePositionalRunsAreCapped(t *testing.T) {
	l := positional(map[FileID][]uint32{1: {0, 2}, 7: {1, 5}})
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
	l := positional(map[FileID][]uint32{2: {0, 4, 8}, 9: {1}})
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
