package index

import "desksearch/internal/fnv"

// termTable is a dictionary's hash index, keyed by FNV-1 as the paper's
// term tables are: it maps a term to its ordinal in a slice of terms the
// table does not hold — a Builder's terms in arrival order, an Index's
// keys in dictionary order. Each slot is 8 B, the term's hash and its
// ordinal + 1 (0 marks an empty slot), in a power-of-two array probed
// linearly and kept at load 7/8 or less. A probe compares the stored hash
// first and the term, read from the slice at the stored ordinal, only when
// the hashes are equal. Terms are never deleted one by one: an owner that
// drops or reorders terms rebuilds the table over its new slice.
type termTable struct {
	slots []termSlot
	n     int // occupied slots
}

type termSlot struct{ hash, ord uint32 }

const (
	// tableMinSlots must be a power of two so the probe mask works.
	tableMinSlots = 16
	// tableLoadNum/tableLoadDen is the load above which the table grows,
	// the extractor's counter's 7/8.
	tableLoadNum = 7
	tableLoadDen = 8
)

// hashTerm returns the FNV-1 hash of term.
func hashTerm(term string) uint32 {
	h := uint32(fnv.Offset32)
	for i := 0; i < len(term); i++ {
		h = fnv.Step32(h, term[i])
	}
	return h
}

// slotsFor returns the slot count that holds n terms at the table's load.
func slotsFor(n int) int {
	s := tableMinSlots
	for s*tableLoadNum/tableLoadDen < n {
		s *= 2
	}
	return s
}

// find returns the ordinal of term, whose hash is h, in terms, or -1 when
// the table does not hold it.
func (t *termTable) find(terms []string, term string, h uint32) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.ord == 0 {
			return -1
		}
		if s.hash == h && terms[s.ord-1] == term {
			return int(s.ord - 1)
		}
	}
}

// insert records ord as the ordinal of a term the table does not hold,
// whose hash is h, growing the table first if that would load it past
// 7/8.
func (t *termTable) insert(h uint32, ord int) {
	if (t.n+1)*tableLoadDen > len(t.slots)*tableLoadNum {
		old := t.slots
		t.slots = make([]termSlot, max(tableMinSlots, 2*len(old)))
		for _, s := range old {
			if s.ord != 0 {
				t.place(s)
			}
		}
	}
	t.place(termSlot{h, uint32(ord) + 1})
	t.n++
}

// place puts s in the first empty slot of its probe sequence.
func (t *termTable) place(s termSlot) {
	mask := uint32(len(t.slots) - 1)
	i := s.hash & mask
	for t.slots[i].ord != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// build makes the table index terms, which must be distinct, and nothing
// else, reusing its array when that is already the size terms call for.
func (t *termTable) build(terms []string) {
	switch n := slotsFor(len(terms)); {
	case len(terms) == 0:
		t.slots = nil
	case n == len(t.slots):
		clear(t.slots)
	default:
		t.slots = make([]termSlot, n)
	}
	t.n = len(terms)
	for i, term := range terms {
		t.place(termSlot{hashTerm(term), uint32(i) + 1})
	}
}

// heapBytes returns the bytes of the table's array.
func (t *termTable) heapBytes() int64 { return 8 * int64(cap(t.slots)) }
