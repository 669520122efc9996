package index

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"desksearch/internal/postings"
)

// TestBuilderOrderings: the blocks' arrival order does not change the
// index, and each list comes out ascending with its runs intact.
func TestBuilderOrderings(t *testing.T) {
	runs := map[postings.FileID][]uint32{2: {0, 7}, 5: {3}, 9: {1, 2, 8}, 11: {4}}
	build := func(order ...postings.FileID) *Index {
		b := NewBuilder(false)
		for _, id := range order {
			b.AddBlockPositional(id, []string{"t"}, []uint32{uint32(len(runs[id]))}, slices.Clone(runs[id]))
		}
		return b.Index()
	}
	inOrder, outOfOrder := build(2, 5, 9, 11), build(9, 2, 11, 5)
	if !inOrder.Equal(outOfOrder) {
		t.Fatal("arrival order changed the index")
	}
	l := outOfOrder.Lookup("t")
	if got := l.IDs(); !reflect.DeepEqual(got, []postings.FileID{2, 5, 9, 11}) {
		t.Fatalf("ids = %v", got)
	}
	for i, id := range l.IDs() {
		if got := l.PositionsAt(i); !reflect.DeepEqual(got, runs[id]) {
			t.Errorf("positions of %d = %v, want %v", id, got, runs[id])
		}
	}
}

// TestBuilderDuplicateIDUnionsPositions: a file logged twice for a term
// gets the union of its runs, and a non-ascending run is sorted and loses
// its repeats.
func TestBuilderDuplicateIDUnionsPositions(t *testing.T) {
	b := NewBuilder(false)
	b.AddBlockPositional(4, []string{"t"}, []uint32{2}, []uint32{5, 1})
	b.AddBlockPositional(4, []string{"t"}, []uint32{4}, []uint32{3, 5, 9, 9})
	l := b.Index().Lookup("t")
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
	if got := l.PositionsAt(0); !reflect.DeepEqual(got, []uint32{1, 3, 5, 9}) {
		t.Fatalf("merged positions = %v", got)
	}
}

// TestBuilderAdoptsPositions: a positional block's runs are logged in the
// buffer they came in, not copied; a block with an empty run and an
// unsorted, repeated run in the middle is compacted in that buffer and
// builds the same index as its cleaned input.
func TestBuilderAdoptsPositions(t *testing.T) {
	cleanPos := []uint32{0, 4, 1, 3, 9, 7, 8}
	clean := NewBuilder(true)
	clean.AddBlockPositional(1, []string{"a", "c", "d"}, []uint32{2, 5, 7}, cleanPos)
	if logged := clean.blocks[0].pos; unsafe.SliceData(logged) != unsafe.SliceData(cleanPos) || len(logged) != 7 {
		t.Fatal("a clean block's positions were copied, not adopted")
	}
	if !slices.Equal(cleanPos, []uint32{0, 4, 1, 3, 9, 7, 8}) {
		t.Fatalf("a clean block's positions were rewritten: %v", cleanPos)
	}

	// b's run is empty and c's is {9, 3, 3, 1}.
	dirtyPos := []uint32{0, 4, 9, 3, 3, 1, 7, 8}
	dirty := NewBuilder(true)
	dirty.AddBlockPositional(1, []string{"a", "b", "c", "d"}, []uint32{2, 2, 6, 8}, dirtyPos)
	logged := dirty.blocks[0].pos
	if unsafe.SliceData(logged) != unsafe.SliceData(dirtyPos) {
		t.Fatal("a block needing compaction was copied, not compacted in place")
	}
	if !slices.Equal(logged, []uint32{0, 4, 1, 3, 9, 7, 8}) {
		t.Fatalf("logged positions %v, want the cleaned runs back to back", logged)
	}
	if !dirty.Index().Equal(clean.Index()) {
		t.Fatal("a block with an empty and an unsorted, repeated run built another index than its cleaned input")
	}
}

// buildModel is what a built index must hold of one term: the runs of its
// positional entries, unioned per file, and every entry's frequency,
// summed per file — the list a term logged by both kinds of block keeps.
type buildModel struct {
	runs       map[postings.FileID][]uint32
	sum        map[postings.FileID]uint32
	positional bool // no position-free block logged the term
}

// count is the frequency the built list must report for id.
func (m *buildModel) count(id postings.FileID) uint32 {
	if m.positional {
		return uint32(len(m.runs[id]))
	}
	return m.sum[id]
}

// buildOps reads a FuzzBuild program: bytes past the end read as 0.
type buildOps struct {
	b []byte
	i int
}

func (r *buildOps) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// position reads one position; the top bytes map to the top of the uint32
// range.
func (r *buildOps) position() uint32 {
	if b := r.next(); b < 250 {
		return uint32(b)
	} else {
		return math.MaxUint32 - uint32(255-b)
	}
}

// FuzzBuild feeds a Builder blocks read from the program — both kinds, file
// IDs in any order and repeated, empty and unsorted runs, zero and absent
// frequencies — and holds the index it builds, and the empty one a second
// build returns, to a term → file → positions model.
//
// The program's first byte's low bit is NewBuilder's positional flag. Each
// block is then a kind byte (bit 0: positional; bit 1: a position-free
// block without frequencies), a file ID byte (mod 16) and a term mask byte
// (term k of eight when bit k is set), followed per term by a run length
// byte (mod 4; 0 is an empty run) and that many positions, or by a
// frequency byte (mod 4).
func FuzzBuild(f *testing.F) {
	// Positional blocks in ID order.
	f.Add([]byte{1, 1, 0, 0b11, 2, 0, 1, 1, 1, 1, 0b10, 1, 4})
	// Out of order, a repeated file, an unsorted run with a repeat, an
	// empty run.
	f.Add([]byte{0, 1, 9, 0b101, 3, 7, 2, 7, 0, 1, 3, 0b1, 1, 5, 1, 9, 0b101, 2, 1, 251})
	// Both kinds on one term, frequencies absent, zero and above one.
	f.Add([]byte{0, 0, 3, 0b11, 2, 0, 1, 5, 0b10, 1, 2, 3, 0b1, 0b10, 0, 0b1})
	// No blocks, positional.
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, program []byte) {
		b, model, positional := runBuild(program)
		checkBuild(t, b.Index(), model, positional)
		// The builder is empty again and keeps its kind.
		checkBuild(t, b.Index(), map[string]*buildModel{}, positional)
	})
}

// runBuild feeds a Builder the blocks of a FuzzBuild program and returns
// it, unbuilt, with the model of what it must build and the index's kind.
func runBuild(program []byte) (*Builder, map[string]*buildModel, bool) {
	r := &buildOps{b: program}
	positional := r.next()&1 == 1
	b := NewBuilder(positional)
	model := map[string]*buildModel{}
	for blocks := 0; r.i < len(r.b) && blocks < 64; blocks++ {
		kind, id, mask := r.next(), postings.FileID(r.next()%16), r.next()
		var terms []string
		for k := 0; k < 8; k++ {
			if mask&(1<<k) != 0 {
				terms = append(terms, fmt.Sprintf("t%d", k))
			}
		}
		if kind&1 == 1 {
			positional = true
			runs := make([][]uint32, len(terms))
			for i := range terms {
				for n := r.next() % 4; n > 0; n-- {
					runs[i] = append(runs[i], r.position())
				}
			}
			for i, term := range terms {
				run := slices.Compact(slices.Sorted(slices.Values(runs[i])))
				if len(run) == 0 {
					continue
				}
				m := modelOf(model, term)
				m.runs[id] = slices.Compact(slices.Sorted(slices.Values(append(m.runs[id], run...))))
				m.sum[id] += uint32(len(run))
			}
			var ends, pos []uint32
			for _, run := range runs {
				pos = append(pos, run...)
				ends = append(ends, uint32(len(pos)))
			}
			b.AddBlockPositional(id, terms, ends, pos)
			continue
		}
		var counts []uint32
		if kind&2 == 0 {
			counts = make([]uint32, len(terms))
			for i := range counts {
				counts[i] = uint32(r.next() % 4)
			}
		}
		for i, term := range terms {
			m := modelOf(model, term)
			m.positional = false
			m.sum[id] += max(1, countAt(counts, i))
		}
		b.AddBlock(id, terms, counts)
	}
	return b, model, positional
}

// FuzzRemoveFiles builds an index from a FuzzBuild program, removes a
// victim set in one RemoveFiles, and holds the index to the build's model
// less the victims: every surviving list with its frequencies and runs,
// no emptied term, NumPostings and the returned count — and every list
// that held no victim is the same *postings.List as before the removal.
//
// Each victim byte below 240 names file ID byte mod 24, so files 16 to 23
// are past the largest posting and held by no list; a byte b of 240 or
// more names file (b-240) << 12, far past it.
func FuzzRemoveFiles(f *testing.F) {
	build := []byte{1, 1, 0, 0b11, 2, 0, 1, 1, 1, 1, 0b10, 1, 4, 0, 2, 0b110, 3, 1, 3, 0, 1, 5, 0b1000, 2}
	// The first file; two adjacent files; a file no list holds and two
	// past the largest posting; every file; no victims.
	f.Add(build, []byte{0})
	f.Add(build, []byte{1, 2})
	f.Add(build, []byte{3, 20, 250})
	f.Add(build, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(build, []byte{})
	// Both kinds of block on one term, victims in any order and repeated.
	f.Add([]byte{0, 0, 3, 0b11, 2, 0, 1, 5, 0b10, 1, 2, 3, 0b1, 0b10, 0, 0b1}, []byte{5, 3, 5, 241})
	f.Fuzz(func(t *testing.T, program, victimBytes []byte) {
		b, model, positional := runBuild(program)
		ix := b.Index()
		victims := make([]postings.FileID, len(victimBytes))
		isVictim := map[postings.FileID]bool{}
		for i, v := range victimBytes {
			victims[i] = postings.FileID(v % 24)
			if v >= 240 {
				victims[i] = postings.FileID(v-240) << 12
			}
			isVictim[victims[i]] = true
		}
		before := map[string]*postings.List{}
		want := map[string]*buildModel{}
		removedWant := 0
		for term, m := range model {
			before[term] = ix.Lookup(term)
			kept := &buildModel{runs: map[postings.FileID][]uint32{}, sum: map[postings.FileID]uint32{}, positional: m.positional}
			for id, sum := range m.sum {
				if isVictim[id] {
					removedWant++
					continue
				}
				kept.sum[id] = sum
				if run, ok := m.runs[id]; ok {
					kept.runs[id] = run
				}
			}
			if len(kept.sum) > 0 {
				want[term] = kept
			}
		}

		if got := ix.RemoveFiles(postings.FromIDs(victims)); got != removedWant {
			t.Fatalf("RemoveFiles removed %d postings, model %d", got, removedWant)
		}
		checkIndex(t, ix, want, positional)
		for term, m := range model {
			if w := want[term]; w != nil && len(w.sum) == len(m.sum) && ix.Lookup(term) != before[term] {
				t.Fatalf("%q held no victim, yet its list was replaced", term)
			}
		}
	})
}

func modelOf(model map[string]*buildModel, term string) *buildModel {
	m, ok := model[term]
	if !ok {
		m = &buildModel{runs: map[postings.FileID][]uint32{}, sum: map[postings.FileID]uint32{}, positional: true}
		model[term] = m
	}
	return m
}

func countAt(counts []uint32, i int) uint32 {
	if counts == nil {
		return 1
	}
	return counts[i]
}

// checkBuild fails t unless ix holds exactly the model, through the read
// API, and every list's columns have no spare capacity.
func checkBuild(t *testing.T, ix *Index, model map[string]*buildModel, positional bool) {
	t.Helper()
	checkIndex(t, ix, model, positional)
	for term := range model {
		l := ix.Lookup(term)
		size := l.Len()
		if l.HasPositions() || l.HasCounts() {
			size += l.Len()
		}
		for i := range l.Len() {
			size += len(l.PositionsAt(i))
		}
		if got := l.HeapBytes(); got != 4*int64(size) {
			t.Fatalf("%q: HeapBytes %d, want %d: the columns have spare capacity", term, got, 4*size)
		}
	}
}

// checkIndex fails t unless ix holds exactly the model, through the read
// API.
func checkIndex(t *testing.T, ix *Index, model map[string]*buildModel, positional bool) {
	t.Helper()
	if ix.Positional() != positional {
		t.Fatalf("Positional = %v, want %v", ix.Positional(), positional)
	}
	var postingsWant int64
	for term, m := range model {
		postingsWant += int64(len(m.sum))
		l := ix.Lookup(term)
		if l == nil {
			t.Fatalf("term %q missing", term)
		}
		ids := slices.Sorted(maps.Keys(m.sum))
		if !slices.Equal(l.IDs(), ids) {
			t.Fatalf("%q: IDs %v, model %v", term, l.IDs(), ids)
		}
		if l.HasPositions() != m.positional {
			t.Fatalf("%q: HasPositions %v, model %v", term, l.HasPositions(), m.positional)
		}
		for i, id := range ids {
			if got := l.CountAt(i); got != m.count(id) {
				t.Fatalf("%q: file %d frequency %d, model %d", term, id, got, m.count(id))
			}
			if m.positional {
				if run := l.PositionsAt(i); !slices.Equal(run, m.runs[id]) {
					t.Fatalf("%q: file %d run %v, model %v", term, id, run, m.runs[id])
				}
			}
		}
	}
	if ix.NumTerms() != len(model) || ix.NumPostings() != postingsWant {
		t.Fatalf("%d terms, %d postings; model %d, %d", ix.NumTerms(), ix.NumPostings(), len(model), postingsWant)
	}
}
