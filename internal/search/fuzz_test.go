package search

import (
	"math"
	"slices"
	"testing"
)

// FuzzParse exercises the extended query grammar (terms, AND/OR/NOT,
// parentheses, '-' negation, quoted phrases) with arbitrary input. Two
// properties must hold for every input:
//
//  1. Parse never panics — it returns a query or an error;
//  2. the canonical form is a fixed point: rendering a parsed query and
//     parsing it again yields the same canonical form. A broker sends
//     its workers the canonical text (server.WorkerParams), which they
//     parse again, so the hop depends on this stability.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"cat",
		"cat dog",
		"cat AND dog",
		"cat OR dog",
		"NOT cat",
		"-draft report",
		"(cat OR dog) food",
		`"annual report"`,
		`"annual report" -draft`,
		`"a b c" OR (d -e)`,
		`""`,
		`"unterminated`,
		"((((x))))",
		"e-mail",
		"Cat!",
		"OR OR",
		") (",
		`-"bad press"`,
		"\x00\xff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		canonical := q.String()
		again, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canonical, text, err)
		}
		if again.String() != canonical {
			t.Fatalf("canonical form unstable: %q → %q → %q", text, canonical, again.String())
		}
		// Positive terms must be identical across the round trip — ranking
		// and matched-term metadata depend on them.
		a, b := q.Terms(), again.Terms()
		if len(a) != len(b) {
			t.Fatalf("positive terms changed: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("positive terms changed: %v vs %v", a, b)
			}
		}
	})
}

// FuzzPhraseWalk holds phraseIn, the per-file position walk, to a naive
// shift-and-scan: for every position p of the first run, look for p+k in
// run k by linear scan, in 64-bit arithmetic so nothing wraps. The input
// decodes into 2–4 ascending runs (fuzzRuns); the walk must agree on every
// input and never panic — an anchor at a later slot than a position it
// holds (underflow), a start at the top of the uint32 range (wrap), empty
// runs and runs of very different lengths included.
func FuzzPhraseWalk(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 5, 1, 6},                         // [5] [6]: a match
		{0, 1, 0, 1, 3, 0, 3, 0, 6, 0, 9},       // [3 10 20] [0 4]: the anchor's first position is below its slot
		{0, 0, 1, 0, 2, 1, 5},                   // [1 4] [5]: the second start matches
		{2, 0, 3, 1, 4, 2, 5, 3, 6},             // four slots, a match
		{1, 0, 0, 0, 1, 1, 1, 2, 0, 2, 1},       // "a b a" in "a b a": [0 2] [1] [0 2]
		{0, 0x80, 1, 0x81, 0},                   // [2^32−2] [2^32−1]: a match at the top of the range
		{0, 0x80, 0, 1, 0},                      // [2^32−1] [0]: the start would wrap
		{0, 0x80, 0, 0, 0},                      // [2^32−1] []: a position past the top is dropped
		{0},                                     // empty runs
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4}, // [0 1 2 3 4] [4]: a long run against a short one
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := fuzzRuns(data)
		if runs == nil {
			return
		}
		want := naivePhraseIn(runs)
		if got := phraseIn(runs, make([]int, len(runs))); got != want {
			t.Fatalf("phraseIn(%v) = %v, naive scan %v", runs, got, want)
		}
	})
}

// fuzzRuns decodes data into 2–4 strictly ascending position runs, as a
// posting list stores them: data[0] picks the run count; each later pair
// of bytes (sel, b) appends to run sel%n (sel's low 7 bits) the position
// b places past its last one — or, when sel's top bit is set, b places
// below the top of the uint32 range, where a phrase start could wrap. A
// position not above the run's last is dropped.
func fuzzRuns(data []byte) [][]uint32 {
	if len(data) == 0 {
		return nil
	}
	runs := make([][]uint32, 2+int(data[0])%3)
	for data = data[1:]; len(data) >= 2; data = data[2:] {
		sel, b := data[0], uint32(data[1])
		r := &runs[int(sel&0x7f)%len(runs)]
		var p uint32
		switch {
		case sel&0x80 != 0:
			p = math.MaxUint32 - b
		case len(*r) == 0:
			p = b
		default:
			p = (*r)[len(*r)-1] + 1 + b
		}
		if len(*r) == 0 || p > (*r)[len(*r)-1] {
			*r = append(*r, p)
		}
	}
	return runs
}

// naivePhraseIn is the specification phraseIn must meet: some position p
// of runs[0] with p+k in runs[k] for every k.
func naivePhraseIn(runs [][]uint32) bool {
	for _, p := range runs[0] {
		match := true
		for k := 1; k < len(runs) && match; k++ {
			t := uint64(p) + uint64(k)
			match = t <= math.MaxUint32 && slices.Contains(runs[k], uint32(t))
		}
		if match {
			return true
		}
	}
	return false
}
