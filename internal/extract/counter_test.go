package extract

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"desksearch/internal/fnv"
)

func addAll(c *counter, words ...string) {
	for _, w := range words {
		c.Add([]byte(w), fnv.Hash32Bytes([]byte(w)))
	}
}

func TestCounterBasics(t *testing.T) {
	c := newCounter(4, false)
	addAll(c, "cat", "cat", "dog", "cat")
	if c.Total() != 4 {
		t.Errorf("Total = %d, want 4", c.Total())
	}
	terms, counts := c.Counts()
	if !reflect.DeepEqual(terms, []string{"cat", "dog"}) || !reflect.DeepEqual(counts, []uint32{3, 1}) {
		t.Errorf("Counts = %v / %v, want first-occurrence order [cat dog] / [3 1]", terms, counts)
	}
	// The view is only read, and copied on first sight: reusing the
	// caller's buffer must not change a recorded key.
	buf := []byte("emu")
	c.Add(buf, fnv.Hash32Bytes(buf))
	copy(buf, "gnu")
	c.Add(buf, fnv.Hash32Bytes(buf))
	if terms, _ := c.Counts(); !reflect.DeepEqual(terms, []string{"cat", "dog", "emu", "gnu"}) {
		t.Errorf("terms after buffer reuse = %v", terms)
	}
}

func TestCounterGrowAndReset(t *testing.T) {
	c := newCounter(2, false)
	want := map[string]uint32{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("term%03d", i%100)
		addAll(c, k)
		want[k]++
	}
	terms, counts := c.Counts()
	if len(terms) != 100 {
		t.Fatalf("%d distinct terms, want 100", len(terms))
	}
	for i, k := range terms {
		if counts[i] != want[k] {
			t.Errorf("count(%q) = %d, want %d", k, counts[i], want[k])
		}
		if want := fmt.Sprintf("term%03d", i); k != want {
			t.Fatalf("terms[%d] = %q, want %q: growth lost the first-occurrence order", i, k, want)
		}
	}
	c.Reset()
	if after, _ := c.Counts(); len(after) != 0 || c.Total() != 0 {
		t.Error("Reset left state behind")
	}
	// A term of the previous file starts again from zero and is listed
	// only once re-added; the others are not listed at all.
	addAll(c, "term001", "fresh", "term001")
	terms2, counts2 := c.Counts()
	if !reflect.DeepEqual(terms2, []string{"term001", "fresh"}) || !reflect.DeepEqual(counts2, []uint32{2, 1}) {
		t.Errorf("after Reset: %v / %v", terms2, counts2)
	}
	// ...and it is the same string as before, not a second copy.
	if unsafe.StringData(terms2[0]) != unsafe.StringData(terms[1]) {
		t.Error("a term seen in an earlier file did not reuse its key string")
	}
	if terms[1] != "term001" || counts[1] != 5 {
		t.Error("the earlier file's block changed after Reset")
	}
}

// runs cuts a positional block's flat columns back into per-term runs.
func runs(ends, pos []uint32) [][]uint32 {
	out := make([][]uint32, len(ends))
	from := uint32(0)
	for i, end := range ends {
		out[i], from = pos[from:end], end
	}
	return out
}

// TestCounterAddAt: a positional counter records each occurrence's token
// position; Positions lays them out as flat columns, term by term in
// first-occurrence order, surviving growth in mid-file and a Reset.
func TestCounterAddAt(t *testing.T) {
	c := newCounter(2, true)
	addAll(c, "a", "b", "a", "c", "a", "b")
	terms, ends, pos := c.Positions()
	if !reflect.DeepEqual(terms, []string{"a", "b", "c"}) ||
		!reflect.DeepEqual(ends, []uint32{3, 5, 6}) || !reflect.DeepEqual(pos, []uint32{0, 2, 4, 1, 5, 3}) {
		t.Fatalf("Positions = %v / %v / %v", terms, ends, pos)
	}
	if cap(ends) != len(ends) || cap(pos) != len(pos) {
		t.Errorf("columns have spare capacity: ends %d/%d, pos %d/%d", len(ends), cap(ends), len(pos), cap(pos))
	}
	// Growth in mid-file keeps ordinals and positions.
	for i := 0; i < 500; i++ {
		addAll(c, fmt.Sprintf("grow%03d", i%100))
	}
	terms, ends, pos = c.Positions()
	if len(terms) != 103 || len(ends) != 103 || len(pos) != 506 || c.Total() != 506 {
		t.Fatalf("after growth: %d terms, %d ends, %d positions, total %d", len(terms), len(ends), len(pos), c.Total())
	}
	if r := runs(ends, pos); !reflect.DeepEqual(r[0], []uint32{0, 2, 4}) || !reflect.DeepEqual(r[3], []uint32{6, 106, 206, 306, 406}) {
		t.Errorf("after growth: a = %v, grow000 = %v", r[0], r[3])
	}
	c.Reset()
	addAll(c, "z", "a")
	after, afterEnds, afterPos := c.Positions()
	if !reflect.DeepEqual(after, []string{"z", "a"}) || !reflect.DeepEqual(afterEnds, []uint32{1, 2}) || !reflect.DeepEqual(afterPos, []uint32{0, 1}) {
		t.Fatalf("after Reset: %v / %v / %v", after, afterEnds, afterPos)
	}
	if !reflect.DeepEqual(pos[:3], []uint32{0, 2, 4}) || ends[0] != 3 {
		t.Error("the earlier file's positions changed after Reset")
	}
}

// TestCounterDropsStaleEntries: terms of earlier files stay in the table
// (their strings are reused) only up to counterMaxRetained; past it the
// next Reset empties the table, so a long run of files with disjoint
// vocabularies cannot grow it without bound.
func TestCounterDropsStaleEntries(t *testing.T) {
	c := newCounter(16, false)
	const perFile = 1000
	maxSlots := 0
	for file := 0; file*perFile < 4*counterMaxRetained; file++ {
		c.Reset()
		if c.n > counterMaxRetained {
			t.Fatalf("file %d: %d entries retained after Reset, limit %d", file, c.n, counterMaxRetained)
		}
		for i := 0; i < perFile; i++ {
			addAll(c, fmt.Sprintf("f%dt%d", file, i))
		}
		if len(c.live) != perFile {
			t.Fatalf("file %d: %d distinct terms, want %d", file, len(c.live), perFile)
		}
		maxSlots = max(maxSlots, len(c.entries))
	}
	// At 7/8 load, counterMaxRetained entries plus one file's terms fit
	// the next power of two above 8/7 of their number.
	if limit := 2 * counterMaxRetained; maxSlots > limit {
		t.Errorf("table reached %d slots, want <= %d", maxSlots, limit)
	}
	if c.n > counterMaxRetained+perFile {
		t.Errorf("%d entries held, want <= %d", c.n, counterMaxRetained+perFile)
	}
}
