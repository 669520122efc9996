package postings

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// windowEmits returns what w emits through its emit callback, packed as
// file index and position.
func windowEmits(w func(emit func(i int, pos uint32))) []uint64 {
	var got []uint64
	w(func(i int, pos uint32) { got = append(got, uint64(i)<<32|uint64(pos)) })
	return got
}

// randomPositional returns a positional list of 1 to 400 postings whose ID
// gaps take one, two and three bytes and whose runs are 1 to 4 positions
// long, now and then 200 (a two-byte frequency).
func randomPositional(rng *rand.Rand) *List {
	n := 1 + rng.Intn(400)
	ids := make([]FileID, n)
	runs := make([][]uint32, n)
	id := FileID(rng.Intn(3))
	for i := range ids {
		ids[i] = id
		switch r := rng.Intn(20); {
		case r < 14:
			id += 1 + FileID(rng.Intn(4))
		case r < 19:
			id += 128 + FileID(rng.Intn(1000))
		default:
			id += 1 << 14
		}
		run := make([]uint32, 1+rng.Intn(4))
		if rng.Intn(30) == 0 {
			run = make([]uint32, 200)
		}
		p := uint32(rng.Intn(40))
		for k := range run {
			run[k] = p
			p += 1 + uint32(rng.Intn(300))
		}
		runs[i] = run
	}
	return FromSortedIDPositions(ids, runs)
}

// TestBlockWindowMatchesList holds Block.Window, over random blocks with
// and without skip tables, to List.Window over the same list, with pages
// of 1 to 40 files — more than the pass keeps on its stack, so its
// re-walk runs too — drawn from the list's IDs and from IDs it lacks.
func TestBlockWindowMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	rewalked := 0
	for range 400 {
		l := randomPositional(rng)
		var b Block
		if err := b.Parse(AppendBlock(nil, l, true), len(l.ids), true); err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(40)
		set := map[FileID]bool{}
		for range n {
			if rng.Intn(3) > 0 {
				set[l.ids[rng.Intn(len(l.ids))]] = true
			} else {
				set[FileID(rng.Intn(int(l.ids[len(l.ids)-1])+2))] = true
			}
		}
		var files []FileID
		for f := range set {
			files = append(files, f)
		}
		slices.Sort(files)
		lo, hi := make([]uint32, len(files)), make([]uint32, len(files))
		for i := range files {
			lo[i] = uint32(rng.Intn(400))
			hi[i] = lo[i] + uint32(rng.Intn(600))
		}
		matched := 0
		for _, f := range files {
			if l.Contains(f) {
				matched++
			}
		}
		if matched > windowMatches {
			rewalked++
		}
		var err error
		got := windowEmits(func(emit func(int, uint32)) { err = b.Window(files, lo, hi, emit) })
		want := windowEmits(func(emit func(int, uint32)) { l.Window(files, lo, hi, emit) })
		if err != nil {
			t.Fatalf("Window over a sound block: %v", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Block.Window emitted %v, List.Window %v (files %v)", got, want, files)
		}
	}
	if rewalked < 20 {
		t.Fatalf("only %d pages asked for more than %d postings of a block", rewalked, windowMatches)
	}
}

// TestBlockWindowFaults hands Block.Window blocks corrupted where each of
// its checks looks — an ID delta of zero after the first, an ID past
// FileID's range, a frequency past the uint32 range or cut short, a
// repeated position and a bad marker — and holds it to reporting each.
// A zero first delta (file 0) and one padded to three bytes are sound.
func TestBlockWindowFaults(t *testing.T) {
	// block encodes ids with one position each (position 1+i), then
	// applies the edits, each a byte range of the block (n < 0: to its
	// end) and its new bytes. The encoding opens with a one-byte skip table and count, so
	// posting i's ID delta is byte 2+i while the deltas take a byte each.
	type edit struct {
		at, n int
		by    []byte
	}
	block := func(ids []FileID, runs [][]uint32, edits ...edit) []byte {
		if runs == nil {
			runs = make([][]uint32, len(ids))
			for i := range runs {
				runs[i] = []uint32{uint32(1 + i)}
			}
		}
		blk := AppendBlock(nil, FromSortedIDPositions(ids, runs), true)
		for _, e := range edits {
			end := len(blk)
			if e.n >= 0 {
				end = e.at + e.n
			}
			blk = slices.Concat(blk[:e.at], e.by, blk[end:])
		}
		return blk
	}
	seq := func(from, n int) []FileID {
		ids := make([]FileID, n)
		for i := range ids {
			ids[i] = FileID(from + i)
		}
		return ids
	}
	// Two counted postings: the frequency section is marker 1, then one
	// byte each, after the two ID deltas.
	counted := [][]uint32{{1, 2}, {3}}
	for _, tc := range []struct {
		name  string
		blk   []byte
		df    int
		files []FileID
		want  string // "" for a sound block
	}{
		{"zero delta at posting 0", block([]FileID{0, 4}, nil), 2, []FileID{0, 4}, ""},
		{"zero delta at posting 1", block([]FileID{2, 3, 7}, nil, edit{3, 1, []byte{0}}), 3, []FileID{2, 7}, "repeated"},
		{"zero delta deep in the section", block(seq(1, 20), nil, edit{7, 1, []byte{0}}), 20, []FileID{20}, "repeated"},
		{"three-byte delta", block([]FileID{1, 6, 9}, nil, edit{4, 1, []byte{0x83, 0x80, 0}}), 3, []FileID{6, 9}, ""},
		{"ID past FileID's range", block([]FileID{1, 2}, nil, edit{3, 1, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}}), 2, []FileID{1, 9}, "overflowing"},
		{"frequency past uint32", block([]FileID{1, 2}, counted, edit{6, 1, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}}), 2, []FileID{1}, "overflows"},
		{"frequency cut short", block([]FileID{1, 2}, counted, edit{6, -1, []byte{0x80}}), 2, []FileID{1}, "corrupt frequency"},
		{"unknown frequency marker", block([]FileID{1, 2}, counted, edit{4, 1, []byte{7}}), 2, []FileID{1}, "frequency marker"},
		{"repeated position", block([]FileID{1, 2}, counted, edit{9, 1, []byte{0}}), 2, []FileID{1}, "duplicate position"},
	} {
		var b Block
		if err := b.Parse(tc.blk, tc.df, true); err != nil {
			t.Fatalf("%s: Parse: %v", tc.name, err)
		}
		lo, hi := make([]uint32, len(tc.files)), make([]uint32, len(tc.files))
		for i := range hi {
			hi[i] = 1 << 20
		}
		err := b.Window(tc.files, lo, hi, func(int, uint32) {})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Window = %v, want no fault", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Window = %v, want a fault containing %q", tc.name, err, tc.want)
		}
		_, _, derr := DecodePositional(tc.blk[1:])
		if (derr == nil) != (tc.want == "") {
			t.Errorf("%s: DecodePositional = %v; the case's block is not what it says", tc.name, derr)
		}
	}
}
