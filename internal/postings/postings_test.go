package postings

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// model computes the expected sorted unique IDs for a slice.
func model(ids []FileID) []FileID {
	set := map[FileID]bool{}
	for _, id := range ids {
		set[id] = true
	}
	out := make([]FileID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) == 0 {
		return nil
	}
	return out
}

func TestFromIDs(t *testing.T) {
	l := FromIDs([]FileID{5, 1, 3, 1, 5, 2})
	want := []FileID{1, 2, 3, 5}
	if !reflect.DeepEqual(l.IDs(), want) {
		t.Errorf("IDs = %v, want %v", l.IDs(), want)
	}
	if l.Len() != 4 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestAddInOrderAndOutOfOrder(t *testing.T) {
	l := &List{}
	for _, id := range []FileID{1, 3, 7} {
		l.Add(id)
	}
	l.Add(5) // middle insertion
	l.Add(0) // front insertion
	l.Add(7) // duplicate
	want := []FileID{0, 1, 3, 5, 7}
	if !reflect.DeepEqual(l.IDs(), want) {
		t.Errorf("IDs = %v, want %v", l.IDs(), want)
	}
}

func TestContains(t *testing.T) {
	l := FromIDs([]FileID{2, 4, 6})
	for _, tc := range []struct {
		id   FileID
		want bool
	}{{1, false}, {2, true}, {3, false}, {4, true}, {6, true}, {7, false}} {
		if got := l.Contains(tc.id); got != tc.want {
			t.Errorf("Contains(%d) = %v", tc.id, got)
		}
	}
	if (&List{}).Contains(0) {
		t.Error("empty list contains 0")
	}
}

// Property: Add-built lists equal the set model for any input sequence.
func TestAddMatchesModel(t *testing.T) {
	if err := quick.Check(func(raw []uint32) bool {
		l := &List{}
		ids := make([]FileID, len(raw))
		for i, r := range raw {
			ids[i] = FileID(r % 1000)
			l.Add(ids[i])
		}
		return reflect.DeepEqual(l.IDs(), model(ids)) || (l.Len() == 0 && len(model(ids)) == 0)
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge is set union, regardless of overlap pattern.
func TestMergeMatchesModel(t *testing.T) {
	if err := quick.Check(func(a, b []uint32) bool {
		la, lb := fromRaw(a), fromRaw(b)
		combined := append(append([]FileID{}, la.IDs()...), lb.IDs()...)
		want := model(combined)
		got := la.Clone().Merge(lb)
		return reflect.DeepEqual(got.IDs(), want) || (got.Len() == 0 && len(want) == 0)
	}, nil); err != nil {
		t.Error(err)
	}
}

func fromRaw(raw []uint32) *List {
	ids := make([]FileID, len(raw))
	for i, r := range raw {
		ids[i] = FileID(r % 500)
	}
	return FromIDs(ids)
}

func TestMergeFastPaths(t *testing.T) {
	// Disjoint ascending.
	a := FromIDs([]FileID{1, 2, 3})
	b := FromIDs([]FileID{10, 11})
	a.Merge(b)
	if !reflect.DeepEqual(a.IDs(), []FileID{1, 2, 3, 10, 11}) {
		t.Errorf("ascending merge: %v", a.IDs())
	}
	// Disjoint descending.
	c := FromIDs([]FileID{10, 11})
	d := FromIDs([]FileID{1, 2, 3})
	c.Merge(d)
	if !reflect.DeepEqual(c.IDs(), []FileID{1, 2, 3, 10, 11}) {
		t.Errorf("descending merge: %v", c.IDs())
	}
	// Empty cases.
	e := &List{}
	e.Merge(FromIDs([]FileID{4}))
	if !reflect.DeepEqual(e.IDs(), []FileID{4}) {
		t.Errorf("empty receiver merge: %v", e.IDs())
	}
	f := FromIDs([]FileID{4})
	f.Merge(&List{})
	f.Merge(nil)
	if !reflect.DeepEqual(f.IDs(), []FileID{4}) {
		t.Errorf("empty argument merge: %v", f.IDs())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIDs([]FileID{1, 2})
	b := a.Clone()
	b.Add(3)
	if a.Len() != 2 || b.Len() != 3 {
		t.Error("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	a := FromIDs([]FileID{1, 2, 3})
	if !a.Equal(FromIDs([]FileID{3, 2, 1})) {
		t.Error("order-insensitive build should be equal")
	}
	if a.Equal(FromIDs([]FileID{1, 2})) || a.Equal(FromIDs([]FileID{1, 2, 4})) {
		t.Error("unequal lists reported equal")
	}
}

// Property: Intersects/Merge/Difference match set semantics.
func TestBooleanOpsMatchModel(t *testing.T) {
	if err := quick.Check(func(a, b []uint32) bool {
		la, lb := fromRaw(a), fromRaw(b)
		inA := map[FileID]bool{}
		for _, id := range la.IDs() {
			inA[id] = true
		}
		inB := map[FileID]bool{}
		for _, id := range lb.IDs() {
			inB[id] = true
		}
		var wantI, wantU, wantD []FileID
		for id := FileID(0); id < 500; id++ {
			if inA[id] && inB[id] {
				wantI = append(wantI, id)
			}
			if inA[id] || inB[id] {
				wantU = append(wantU, id)
			}
			if inA[id] && !inB[id] {
				wantD = append(wantD, id)
			}
		}
		eq := func(got *List, want []FileID) bool {
			return reflect.DeepEqual(got.IDs(), want) || (got.Len() == 0 && len(want) == 0)
		}
		return eq(la.Clone().Merge(lb), wantU) && eq(Difference(la, lb), wantD) &&
			Intersects(la, lb) == (len(wantI) > 0) && Intersects(lb, la) == (len(wantI) > 0)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: encode/decode round-trips every list.
func TestVarintRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw []uint32) bool {
		l := fromRaw(raw)
		buf := l.Encode(nil)
		if len(buf) != l.EncodedSize() {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Equal(l)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintRoundTripLargeIDs(t *testing.T) {
	l := FromIDs([]FileID{0, 1, 0x7FFF_FFFF, 0xFFFF_FFFE, 0xFFFF_FFFF})
	buf := l.Encode(nil)
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l) {
		t.Errorf("round trip = %v", got.IDs())
	}
}

func TestVarintAppendsToPrefix(t *testing.T) {
	l := FromIDs([]FileID{7})
	buf := l.Encode([]byte{0xAA})
	if buf[0] != 0xAA {
		t.Error("Encode did not append")
	}
	got, n, err := Decode(buf[1:])
	if err != nil || n != len(buf)-1 || !got.Equal(l) {
		t.Errorf("decode after prefix: %v %d %v", got, n, err)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := [][]byte{
		{},                 // no count
		{0x05},             // count 5, no deltas
		{0x02, 0x01},       // count 2, one delta
		{0xFF},             // truncated uvarint
		{0x02, 0x01, 0x00}, // zero delta = duplicate
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // absurd count
	}
	for _, buf := range cases {
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("Decode(% x) succeeded on corrupt input", buf)
		}
	}
}

func TestDecodeOverflowingID(t *testing.T) {
	// First ID = 2^32 encoded directly must be rejected.
	buf := []byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x10}
	if _, _, err := Decode(buf); err == nil {
		t.Error("Decode accepted ID overflowing FileID")
	}
}

func TestEncodedSizeCompression(t *testing.T) {
	// Dense consecutive IDs must encode near 1 byte each.
	l := &List{}
	for i := FileID(1000); i < 2000; i++ {
		l.Add(i)
	}
	if size := l.EncodedSize(); size > 1010 {
		t.Errorf("dense list encodes to %d bytes, want ≈1002", size)
	}
}

func BenchmarkMergeDisjoint(b *testing.B) {
	a := &List{}
	for i := FileID(0); i < 10000; i++ {
		a.Add(i)
	}
	c := &List{}
	for i := FileID(10000); i < 20000; i++ {
		c.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Clone().Merge(c)
	}
}

func BenchmarkMergeInterleaved(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, c := &List{}, &List{}
	for i := 0; i < 10000; i++ {
		a.Add(FileID(rng.Intn(100000)))
		c.Add(FileID(rng.Intn(100000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Clone().Merge(c)
	}
}
