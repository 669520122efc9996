package postings

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestGallopEdges(t *testing.T) {
	s := []uint32{2, 4, 4, 4, 9, 12}
	for _, tc := range []struct {
		name         string
		s            []uint32
		from         int
		target, want int
	}{
		{"empty", nil, 0, 5, 0},
		{"from at the end", s, len(s), 1, len(s)},
		{"target past the last element", s, 0, 13, len(s)},
		{"target past the last element, from > 0", s, 4, 100, len(s)},
		{"target below the first", s, 0, 1, 0},
		{"hit at from", s, 0, 2, 0},
		{"equal neighbours: first of the run", s, 0, 4, 1},
		{"equal neighbours: from inside the run", s, 2, 4, 2},
		{"between elements", s, 0, 5, 4},
		{"from > 0 never looks back", s, 3, 2, 3},
		{"from > 0, leap to the last", s, 1, 12, 5},
		{"one element, hit", []uint32{7}, 0, 7, 0},
		{"one element, past", []uint32{7}, 0, 8, 1},
	} {
		if got := Gallop(tc.s, tc.from, uint32(tc.target)); got != tc.want {
			t.Errorf("%s: Gallop(%v, %d, %d) = %d, want %d", tc.name, tc.s, tc.from, tc.target, got, tc.want)
		}
	}
	// The same search over file IDs: the type Iterator.SeekGE passes.
	if got := Gallop([]FileID{1, 3, 5}, 1, FileID(4)); got != 2 {
		t.Errorf("Gallop over FileIDs = %d, want 2", got)
	}
}

// Property: Gallop is the linear scan from `from` to the first element
// >= target, for every ascending slice, start and target — every bracket
// size the exponential probe can end on included.
func TestGallopMatchesLinearScan(t *testing.T) {
	if err := quick.Check(func(raw []uint16, from uint8, target uint16) bool {
		s := make([]uint32, len(raw))
		for i, r := range raw {
			s[i] = uint32(r % 512)
		}
		slices.Sort(s) // equal neighbours stay in
		f := int(from) % (len(s) + 1)
		want := f
		for want < len(s) && s[want] < uint32(target%600) {
			want++
		}
		return Gallop(s, f, uint32(target%600)) == want
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
