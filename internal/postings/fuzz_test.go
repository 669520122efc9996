package postings

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// listModel is what a List under test must hold. While positional it keeps
// each posting's run; once demoted, each posting's frequency. An empty
// model has no kind, as an empty List has none: its next insertion
// decides.
type listModel struct {
	positional bool
	runs       map[FileID][]uint32 // positional postings
	freq       map[FileID]uint32   // the others
}

func emptyModel() *listModel {
	return &listModel{runs: map[FileID][]uint32{}, freq: map[FileID]uint32{}}
}

func (m *listModel) len() int { return len(m.runs) + len(m.freq) }

func (m *listModel) ids() []FileID {
	if m.positional {
		return slices.Sorted(maps.Keys(m.runs))
	}
	return slices.Sorted(maps.Keys(m.freq))
}

func (m *listModel) count(id FileID) uint32 {
	if m.positional {
		return uint32(len(m.runs[id]))
	}
	return m.freq[id]
}

func (m *listModel) clone() *listModel {
	c := emptyModel()
	c.positional = m.positional
	for id, r := range m.runs {
		c.runs[id] = slices.Clone(r)
	}
	maps.Copy(c.freq, m.freq)
	return c
}

// storesCounts reports whether l stores explicit frequencies once
// demoted: a positional model's list does when a run is longer than one
// (demotion normalizes), a counted one when l already does.
func (m *listModel) storesCounts(l *List) bool {
	if !m.positional {
		return l.HasCounts()
	}
	for _, r := range m.runs {
		if len(r) > 1 {
			return true
		}
	}
	return false
}

func (m *listModel) demote() {
	if !m.positional {
		return
	}
	for id, r := range m.runs {
		m.freq[id] = uint32(len(r))
	}
	m.runs, m.positional = map[FileID][]uint32{}, false
}

// addN is AddN's rule on a demoted model: a present posting's frequency
// grows by n unless the list is boolean and n is 1 (set semantics).
func (m *listModel) addN(id FileID, n uint32, stored bool) {
	if _, ok := m.freq[id]; !ok {
		m.freq[id] = n
	} else if n > 1 || stored {
		m.freq[id] += n
	}
}

func (m *listModel) addRun(id FileID, run []uint32) {
	m.positional = true
	m.runs[id] = slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(m.runs[id]), run...))))
}

// merge is Merge's rule: runs union when both sides are positional,
// frequencies sum otherwise, unless neither side stores any (both
// boolean), where the overlap keeps frequency 1.
func (m *listModel) merge(l *List, o *listModel, other *List) {
	switch {
	case o.len() == 0:
	case m.len() == 0:
		*m = *o.clone()
	case m.positional && o.positional:
		for id, r := range o.runs {
			m.addRun(id, r)
		}
	default:
		stored := m.storesCounts(l) || other.HasCounts() || other.HasPositions()
		m.demote()
		for _, id := range o.ids() {
			m.addN(id, o.count(id), stored)
		}
	}
}

func (m *listModel) mergeCounted(o *listModel) {
	if o.len() == 0 {
		return
	}
	m.demote()
	for _, id := range o.ids() {
		m.freq[id] += o.count(id)
	}
}

func (m *listModel) equal(o *listModel) bool {
	if m.len() == 0 || o.len() == 0 {
		return m.len() == o.len()
	}
	if m.positional != o.positional {
		return false
	}
	return maps.EqualFunc(m.runs, o.runs, slices.Equal) && maps.Equal(m.freq, o.freq)
}

// check fails t unless l holds exactly what m says, through the read API.
func (m *listModel) check(t *testing.T, name string, l *List) {
	t.Helper()
	ids := m.ids()
	if !slices.Equal(l.IDs(), ids) {
		t.Fatalf("%s: IDs %v, model %v", name, l.IDs(), ids)
	}
	if l.HasPositions() != (m.positional && m.len() > 0) {
		t.Fatalf("%s: HasPositions %v, model positional %v", name, l.HasPositions(), m.positional)
	}
	for i, id := range ids {
		if got, want := l.CountAt(i), m.count(id); got != want || l.CountOf(id) != want {
			t.Fatalf("%s: file %d frequency %d (CountOf %d), model %d", name, id, got, l.CountOf(id), want)
		}
		if !m.positional {
			continue
		}
		run := l.PositionsAt(i)
		if !slices.Equal(run, m.runs[id]) || cap(run) != len(run) {
			t.Fatalf("%s: file %d run %v (cap %d), model %v", name, id, run, cap(run), m.runs[id])
		}
	}
}

// fuzzOps reads a FuzzPositionalList program: bytes past the end read as 0.
type fuzzOps struct {
	b []byte
	i int
}

func (r *fuzzOps) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *fuzzOps) id() FileID { return FileID(r.next() % 16) }

// position reads one position; the top bytes map to the top of the uint32
// range, so runs reach both ends of it.
func (r *fuzzOps) position() uint32 {
	if b := r.next(); b < 250 {
		return uint32(b)
	} else {
		return math.MaxUint32 - uint32(255-b)
	}
}

func (r *fuzzOps) run() []uint32 {
	run := make([]uint32, 1+r.next()%4)
	for k := range run {
		run[k] = r.position()
	}
	return run
}

// single returns the one-posting positional list of id with run, sorted
// and without repeats.
func single(id FileID, run []uint32) *List {
	return FromSortedIDPositions([]FileID{id}, [][]uint32{slices.Compact(slices.Sorted(slices.Values(run)))})
}

// The operations of a FuzzPositionalList program. Each opcode is followed
// by a byte whose low bit picks the receiver (list 0 or 1), then its
// arguments.
const (
	opInsertRun = iota // id, run length-1, positions
	opAddN             // id, n-1
	opMerge
	opMergeCounted
	opClone
	opWindow    // file mask (2 bytes), lo, hi
	opRoundTrip // the receiver is replaced by its decode
	numOps
)

// FuzzPositionalList runs programs of list operations on two lists and
// holds both, after every step, to a map model: one-posting positional
// lists merged in, in any order and with duplicate IDs and unsorted,
// repeated positions; Merge and MergeCounted between them;
// demotion through AddN; Clone and Equal; Window; and the
// EncodePositional/DecodePositional round trip, whose decode the program
// then keeps mutating.
func FuzzPositionalList(f *testing.F) {
	add := func(x, id byte, run ...byte) []byte {
		return append([]byte{opInsertRun, x, id, byte(len(run) - 1)}, run...)
	}
	// A mid-list insert: 9, then 2 before it, then 5 between.
	f.Add(slices.Concat(add(0, 9, 4, 1), add(0, 2, 7), add(0, 5, 3, 3, 0), []byte{opRoundTrip, 0}))
	// An overlapping merge of positional lists, then a demoting one.
	f.Add(slices.Concat(add(0, 1, 5), add(0, 3, 2, 9), add(0, 5, 1), add(1, 3, 4, 9), add(1, 4, 0),
		[]byte{opMerge, 0, opAddN, 1, 6, 2, opMerge, 1, opMergeCounted, 0}))
	// Two runs of one file merged, then a clone and a window to the top.
	f.Add(slices.Concat(add(0, 2, 8), add(1, 2, 3), []byte{opMerge, 0}, add(0, 7, 1, 2),
		[]byte{opClone, 0, opWindow, 0, 0x80, 0, 0, 255}))
	f.Fuzz(func(t *testing.T, program []byte) {
		lists := [2]*List{{}, {}}
		models := [2]*listModel{emptyModel(), emptyModel()}
		r := &fuzzOps{b: program}
		for step := 0; r.i < len(r.b) && step < 64; step++ {
			op, x := r.next()%numOps, int(r.next()&1)
			l, m := lists[x], models[x]
			o, om := lists[1-x], models[1-x]
			switch op {
			case opInsertRun:
				id, run := r.id(), r.run()
				one := single(id, run)
				sm := emptyModel()
				sm.addRun(id, run)
				m.merge(l, sm, one)
				l.Merge(one)
			case opAddN:
				id, n := r.id(), uint32(1+r.next()%3)
				stored := m.storesCounts(l)
				m.demote()
				m.addN(id, n, stored)
				l.AddN(id, n)
			case opMerge:
				m.merge(l, om, o)
				l.Merge(o)
			case opMergeCounted:
				m.mergeCounted(om)
				l.MergeCounted(o)
			case opClone:
				c := l.Clone()
				if !c.Equal(l) {
					t.Fatal("a clone differs from its list")
				}
				if got, want := l.Equal(o), m.equal(om); got != want {
					t.Fatalf("Equal = %v, models equal = %v", got, want)
				}
				c.Merge(single(r.id(), []uint32{math.MaxUint32}))
				c.AddN(r.id(), 2) // l is checked below: neither reached it
			case opWindow:
				mask := uint16(r.next()) | uint16(r.next())<<8
				lo, hi := r.position(), r.position()
				var files []FileID
				for id := FileID(0); id < 16; id++ {
					if mask&(1<<id) != 0 {
						files = append(files, id)
					}
				}
				los, his := make([]uint32, len(files)), make([]uint32, len(files))
				var want, got [][2]uint32
				for i, id := range files {
					los[i], his[i] = lo, hi
					if m.positional {
						for _, p := range m.runs[id] {
							if lo <= p && p <= hi {
								want = append(want, [2]uint32{uint32(i), p})
							}
						}
					}
				}
				l.Window(files, los, his, func(i int, p uint32) { got = append(got, [2]uint32{uint32(i), p}) })
				if !slices.Equal(got, want) {
					t.Fatalf("Window(%v, %d, %d) = %v, model %v", files, lo, hi, got, want)
				}
			case opRoundTrip:
				buf := l.EncodePositional(nil)
				d, n, err := DecodePositional(buf)
				if err != nil || n != len(buf) {
					t.Fatalf("round trip: %v (consumed %d of %d)", err, n, len(buf))
				}
				if !d.Equal(l) {
					t.Fatal("round trip changed the list")
				}
				lists[x] = d
			}
			for k := range lists {
				models[k].check(t, string(rune('A'+k)), lists[k])
			}
		}
	})
}
