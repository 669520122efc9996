package postings

import (
	"fmt"
	"reflect"
	"testing"
)

func TestAddNCounts(t *testing.T) {
	l := &List{}
	l.AddN(5, 3)
	l.Add(9)
	l.AddN(2, 2) // out-of-order insert
	if got := l.IDs(); !reflect.DeepEqual(got, []FileID{2, 5, 9}) {
		t.Fatalf("ids = %v", got)
	}
	for _, tc := range []struct {
		id   FileID
		want uint32
	}{{2, 2}, {5, 3}, {9, 1}, {7, 0}} {
		if got := l.CountOf(tc.id); got != tc.want {
			t.Errorf("CountOf(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
	// Re-adding sums frequencies (Merge's discipline).
	l.AddN(9, 4)
	if got := l.CountOf(9); got != 5 {
		t.Errorf("CountOf(9) after re-add = %d, want 5", got)
	}
}

func TestCountsStayImplicitForBooleanLists(t *testing.T) {
	l := &List{}
	for i := 0; i < 10; i++ {
		l.Add(FileID(i * 2))
	}
	if l.vals != nil {
		t.Error("all-ones list materialized counts")
	}
	if l.CountAt(3) != 1 || l.CountOf(4) != 1 {
		t.Error("implicit frequency != 1")
	}
}

func TestMergeSumsCounts(t *testing.T) {
	a := FromSortedIDCounts([]FileID{1, 3, 5}, []uint32{2, 1, 4})
	b := FromSortedIDCounts([]FileID{2, 3, 6}, []uint32{1, 5, 2})
	a.Merge(b)
	want := FromSortedIDCounts([]FileID{1, 2, 3, 5, 6}, []uint32{2, 1, 6, 4, 2})
	if !a.Equal(want) {
		t.Errorf("merged = %v / %v", a.IDs(), a.vals)
	}
	// Disjoint fast path keeps counts aligned.
	c := FromSortedIDCounts([]FileID{1, 2}, []uint32{3, 1})
	d := FromSortedIDCounts([]FileID{10, 11}, []uint32{1, 7})
	c.Merge(d)
	if c.CountOf(1) != 3 || c.CountOf(10) != 1 || c.CountOf(11) != 7 {
		t.Errorf("disjoint merge counts wrong: %v", c.vals)
	}
	// Mixed: counted merged into boolean materializes the boolean side.
	e := FromSortedIDs([]FileID{1, 2})
	e.Merge(FromSortedIDCounts([]FileID{2, 3}, []uint32{4, 2}))
	if e.CountOf(1) != 1 || e.CountOf(2) != 5 || e.CountOf(3) != 2 {
		t.Errorf("mixed merge counts wrong: %v", e.vals)
	}
}

func TestEncodeDecodeCounts(t *testing.T) {
	cases := []*List{
		{},
		FromSortedIDs([]FileID{0, 1, 7, 100}),
		FromSortedIDCounts([]FileID{2, 9, 300}, []uint32{1, 128, 3}),
		FromSortedIDCounts([]FileID{5}, []uint32{0xFFFF_FFFF}),
	}
	for i, l := range cases {
		buf := l.Encode(nil)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !got.Equal(l) {
			t.Errorf("case %d: round trip %v/%v != %v/%v", i, got.ids, got.vals, l.ids, l.vals)
		}
	}
	// An all-ones explicit list round-trips into the implicit form.
	l := FromSortedIDCounts([]FileID{1, 2}, []uint32{1, 1})
	got, _, err := Decode(l.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.vals != nil {
		t.Error("all-ones counts not normalized on decode")
	}
}

func TestDecodeCountErrors(t *testing.T) {
	// Truncated before the frequency marker.
	l := FromSortedIDs([]FileID{1, 2, 3})
	buf := l.Encode(nil)
	if _, _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("missing marker accepted")
	}
	// Unknown marker byte.
	bad := append(append([]byte(nil), buf[:len(buf)-1]...), 9)
	if _, _, err := Decode(bad); err == nil {
		t.Error("unknown marker accepted")
	}
	// Counted marker with missing frequencies.
	counted := append(append([]byte(nil), buf[:len(buf)-1]...), 1)
	if _, _, err := Decode(counted); err == nil {
		t.Error("truncated frequencies accepted")
	}
}

func TestCloneAndEqualWithCounts(t *testing.T) {
	a := FromSortedIDCounts([]FileID{1, 2}, []uint32{3, 1})
	b := a.Clone()
	b.AddN(2, 1)
	if a.CountOf(2) != 1 {
		t.Error("clone shares count storage")
	}
	if a.Equal(b) {
		t.Error("lists with different counts compare equal")
	}
	if !FromSortedIDs([]FileID{1}).Equal(FromSortedIDCounts([]FileID{1}, []uint32{1})) {
		t.Error("implicit and explicit all-ones lists compare unequal")
	}
}

func TestFromSortedIDCountsClampsZero(t *testing.T) {
	l := FromSortedIDCounts([]FileID{1, 2}, []uint32{0, 3})
	if l.CountOf(1) != 1 || l.CountOf(2) != 3 {
		t.Errorf("counts = %d/%d, want 1/3", l.CountOf(1), l.CountOf(2))
	}
	// An all-zero (→ all-one) slice normalizes to the implicit form and
	// the round trip stays loadable.
	z := FromSortedIDCounts([]FileID{5}, []uint32{0})
	if z.vals != nil {
		t.Error("clamped all-ones counts not normalized")
	}
	if _, _, err := Decode(l.Encode(nil)); err != nil {
		t.Errorf("round trip after clamp: %v", err)
	}
}

// TestMergeCountedSums pins what a prefix expansion relies on: whatever
// form the operands are stored in — boolean, counted, positional — a
// posting present in both ends with the sum of its two frequencies, and
// the accumulator never carries positions.
func TestMergeCountedSums(t *testing.T) {
	boolA := FromSortedIDs([]FileID{1, 3, 5})
	boolB := FromSortedIDs([]FileID{3, 4})
	counted := FromSortedIDCounts([]FileID{2, 3}, []uint32{4, 2})
	posA := FromSortedIDPositions([]FileID{1, 3, 5}, [][]uint32{{7}, {2}, {9}})
	posB := FromSortedIDPositions([]FileID{3, 4}, [][]uint32{{5}, {1}})
	posC := FromSortedIDPositions([]FileID{2, 3}, [][]uint32{{0, 1, 2, 3}, {8, 11}})

	want := FromSortedIDCounts([]FileID{1, 2, 3, 4, 5}, []uint32{1, 4, 4, 1, 1})
	for name, ops := range map[string][]*List{
		"position-free": {boolA, boolB, counted},
		"positional":    {posA, posB, posC},
		"mixed":         {posA, boolB, posC},
	} {
		u := &List{}
		for _, l := range ops {
			u.MergeCounted(l)
		}
		if u.HasPositions() || !u.Equal(want) {
			t.Errorf("%s: union = %v with counts %v (positions %v), want %v with %v",
				name, u.IDs(), countsOf(u), u.HasPositions(), want.IDs(), countsOf(want))
		}
	}
	// The positional merge the snippet path keeps arrives at the same
	// frequencies, as run lengths.
	p := &List{}
	for _, l := range []*List{posA, posB, posC} {
		p.Merge(l)
	}
	if fmt.Sprint(countsOf(p)) != fmt.Sprint(countsOf(want)) {
		t.Errorf("positional Merge counts %v, MergeCounted %v", countsOf(p), countsOf(want))
	}
	// Merge's set semantics for two boolean lists is what MergeCounted
	// exists to avoid.
	if got := (&List{}).Merge(boolA).Merge(boolB).CountOf(3); got != 1 {
		t.Errorf("Merge of boolean lists gives file 3 frequency %d, want 1", got)
	}
	if boolA.Len() != 3 || posA.CountAt(1) != 1 {
		t.Error("MergeCounted modified an operand")
	}
}

func countsOf(l *List) []uint32 {
	out := make([]uint32, l.Len())
	for i := range out {
		out[i] = l.CountAt(i)
	}
	return out
}
