package index

import (
	"cmp"
	"slices"
	"strings"

	"desksearch/internal/postings"
)

// Builder is Stage 3: it takes a build's term blocks and inverts them into
// an Index in bulk. A block costs one dictionary lookup per term and one
// exact-size copy, a (term, run end or frequency) entry per term; a
// positional block's runs stay in the buffer they came in. So no posting
// list is touched while blocks arrive. Index then sorts the blocks by file
// ID, sizes every term's columns exactly from the totals the log kept, and
// fills them in ID order: each list is written once, front to back, and
// has no spare capacity. Blocks may therefore arrive in any order, as they
// do from several extractors.
//
// A Builder has one owner: it takes no lock.
type Builder struct {
	positional bool
	names      []string  // the logged terms, each once, in arrival order
	table      termTable // term → its ordinal, an index into names
	// totals is parallel to names. It is apart from them, and small, so
	// that the per-entry update stays in cache.
	totals []termTotals
	blocks []loggedBlock
	// unordered records that some block arrived after a block with a
	// larger file ID, so Index must sort.
	unordered bool
}

// builderInitialSlots sizes a Builder's term table when its first term
// arrives: room for 1 792 terms before it first grows.
const builderInitialSlots = 1 << 11

// termTotals is what the log holds of one term: the sizes of its columns.
type termTotals struct {
	postings  uint32 // logged entries; a file logged twice counts twice
	positions uint32 // logged positions, over the term's positional entries
	kinds     uint8
}

const (
	kindPositional uint8 = 1 << iota // a positional block logged the term
	kindCounted                      // a position-free block logged the term
	kindHeavy                        // some entry's frequency is not 1
)

// logEntry is one term of one block: the term's ordinal and, for a
// positional block, the end of the term's run among the block's
// positions, else the term's frequency.
type logEntry struct{ term, val uint32 }

// loggedBlock is one block as the log keeps it: an entry per term,
// allocated at its final size, and, for a positional block, the runs the
// entries end in — the block's own position buffer, adopted.
type loggedBlock struct {
	id         postings.FileID
	positional bool
	entries    []logEntry
	pos        []uint32
}

// NewBuilder returns an empty builder. positional marks the index it
// builds positional even if no positional block arrives, so an empty
// positional build still persists — and updates — positionally.
func NewBuilder(positional bool) *Builder { return &Builder{positional: positional} }

// AddBlock logs a file's duplicate-free term block. counts, when non-nil,
// carries the per-term occurrence frequency parallel to terms
// (extract.TermBlock.Counts; a zero is recorded as 1); nil records every
// term with frequency 1. The builder keeps none of the block's slices.
func (b *Builder) AddBlock(id postings.FileID, terms []string, counts []uint32) {
	blk := loggedBlock{id: id, entries: make([]logEntry, 0, len(terms))}
	for i, term := range terms {
		n, kind := uint32(1), kindCounted
		if counts != nil && counts[i] > 1 {
			n, kind = counts[i], kindCounted|kindHeavy
		}
		blk.entries = append(blk.entries, logEntry{b.note(term, kind, 0), n})
	}
	b.seal(blk)
}

// AddBlockPositional logs a file's duplicate-free term block with the
// per-term occurrence positions extracted alongside it, in the block's two
// flat columns (extract.TermBlock.Ends and Pos): pos holds the ascending
// token positions of each term in turn, the run of terms[i] ending at
// ends[i], and the frequency is the run's length. The builder adopts pos
// as its log of the block's positions, so the caller must not use it
// again. An empty run logs nothing; a non-ascending one is sorted and its
// repeats dropped, since the codec delta-codes runs with strictly
// positive gaps, and the runs after it move down over the room that
// freed — in pos, in place. Marks the index positional.
func (b *Builder) AddBlockPositional(id postings.FileID, terms []string, ends, pos []uint32) {
	b.positional = true
	blk := loggedBlock{id: id, positional: true, entries: make([]logEntry, 0, len(terms))}
	var from, to uint32 // where the next run starts in pos as given, and as logged
	for i, term := range terms {
		run := pos[from:ends[i]]
		if to < from {
			run = pos[to : to+uint32(copy(pos[to:], run))]
		}
		from = ends[i]
		if !ascending(run) {
			run = sortRun(run)
		}
		if len(run) == 0 {
			continue
		}
		to += uint32(len(run))
		kind := kindPositional
		if len(run) > 1 {
			kind |= kindHeavy
		}
		blk.entries = append(blk.entries, logEntry{b.note(term, kind, len(run)), to})
	}
	blk.pos = pos[:to]
	b.seal(blk)
}

// note adds one entry of kind, with npos positions, to term's totals and
// returns the term's ordinal.
func (b *Builder) note(term string, kind uint8, npos int) uint32 {
	h := hashTerm(term)
	o := b.table.find(b.names, term, h)
	if o < 0 {
		if b.table.slots == nil {
			b.table.slots = make([]termSlot, builderInitialSlots)
		}
		o = len(b.names)
		b.table.insert(h, o)
		b.names = append(b.names, term)
		b.totals = append(b.totals, termTotals{})
	}
	t := &b.totals[o]
	t.postings++
	t.positions += uint32(npos)
	t.kinds |= kind
	return uint32(o)
}

// seal records a block; one that logged nothing is dropped.
func (b *Builder) seal(blk loggedBlock) {
	if len(blk.entries) == 0 {
		return
	}
	if n := len(b.blocks); n > 0 && blk.id < b.blocks[n-1].id {
		b.unordered = true
	}
	b.blocks = append(b.blocks, blk)
}

// Index builds the logged blocks into an index and leaves the builder
// empty. The blocks are taken in file-ID order, whatever order they came
// in (a stable sort, skipped when they came in order). A file logged twice
// for a term unions its positions or sums its frequencies, and a term
// logged by both kinds of block keeps frequencies only — each positional
// entry counting its run's length — as List.Merge demotes a positional
// list merged with a counted one.
//
// The terms are sorted once, here, by their first eight bytes read as a
// big-endian integer and by the whole strings only where those tie, and
// each term's columns are allocated and its list header placed in that
// order, so that a walk of the dictionary reads memory front to back.
func (b *Builder) Index() *Index {
	if b.unordered {
		slices.SortStableFunc(b.blocks, func(x, y loggedBlock) int { return cmp.Compare(x.id, y.id) })
	}
	order := make([]sortKey, len(b.names)) // ordinals in dictionary order
	for o, term := range b.names {
		order[o] = sortKey{prefix8(term), uint32(o)}
	}
	slices.SortFunc(order, func(x, y sortKey) int {
		if c := cmp.Compare(x.prefix, y.prefix); c != 0 {
			return c
		}
		return strings.Compare(b.names[x.ord], b.names[y.ord])
	})
	cols := make([]column, len(b.totals))
	for _, k := range order {
		cols[k.ord] = newColumn(b.totals[k.ord])
	}
	var docs []postings.FileID
	for i, blk := range b.blocks {
		// A list can end in this block's file only if the block before,
		// which the sort put next to it, logged the same file.
		again := i > 0 && b.blocks[i-1].id == blk.id
		if !again {
			docs = append(docs, blk.id)
		}
		if !blk.positional {
			for _, e := range blk.entries {
				cols[e.term].addCount(blk.id, e.val, again)
			}
			continue
		}
		from := uint32(0)
		for _, e := range blk.entries {
			cols[e.term].addRun(blk.id, blk.pos[from:e.val], again)
			from = e.val
		}
	}
	terms := make([]string, len(order))
	slab := make([]postings.List, len(order))
	for i, k := range order {
		terms[i] = b.names[k.ord]
		slab[i] = cols[k.ord].list()
	}
	ix := NewOrdered(terms, slab, docs, b.positional)
	*b = Builder{positional: b.positional}
	return ix
}

// sortKey is a term's ordinal with its first eight bytes, big-endian and
// zero-padded: ordering the keys orders the terms wherever they differ in
// those bytes.
type sortKey struct {
	prefix uint64
	ord    uint32
}

// prefix8 returns term's first eight bytes as a big-endian integer, the
// missing bytes of a shorter term read as zero.
func prefix8(term string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(term) {
			k |= uint64(term[i])
		}
	}
	return k
}

// column is one term's posting list while Index fills it: columns of the
// exact capacity the term's totals call for, appended to in ID order.
type column struct {
	ids       []postings.FileID
	vals, pos []uint32
}

// newColumn sizes a term's columns: run ends and positions for a term only
// positional blocks logged, frequencies for any other term some entry of
// which is not 1, and IDs alone otherwise.
func newColumn(t termTotals) column {
	c := column{ids: make([]postings.FileID, 0, t.postings)}
	switch {
	case t.kinds&kindCounted == 0:
		c.vals = make([]uint32, 0, t.postings)
		c.pos = make([]uint32, 0, t.positions)
	case t.kinds&kindHeavy != 0:
		c.vals = make([]uint32, 0, t.postings)
	}
	return c
}

// addRun appends id's position run — or, on a term kept as frequencies,
// the run's length. again reports that the list may already end in id.
func (c *column) addRun(id postings.FileID, run []uint32, again bool) {
	if c.pos == nil {
		c.addCount(id, uint32(len(run)), again)
		return
	}
	if n := len(c.ids); again && n > 0 && c.ids[n-1] == id {
		from := 0
		if n > 1 {
			from = int(c.vals[n-2])
		}
		c.pos = append(c.pos, run...)
		c.pos = c.pos[:from+len(sortRun(c.pos[from:]))]
		c.vals[n-1] = uint32(len(c.pos))
		return
	}
	c.ids = append(c.ids, id)
	c.pos = append(c.pos, run...)
	c.vals = append(c.vals, uint32(len(c.pos)))
}

// addCount appends id with frequency n; again is addRun's. A column
// without frequencies only ever sees n = 1 (newColumn), until a file
// logged twice sums to 2.
func (c *column) addCount(id postings.FileID, n uint32, again bool) {
	if last := len(c.ids) - 1; again && last >= 0 && c.ids[last] == id {
		if c.vals == nil {
			c.vals = make([]uint32, len(c.ids), cap(c.ids))
			for i := range c.vals {
				c.vals[i] = 1
			}
		}
		c.vals[last] += n
		return
	}
	c.ids = append(c.ids, id)
	if c.vals != nil {
		c.vals = append(c.vals, n)
	}
}

// list hands the columns to a posting list, copied to their length when a
// file logged twice left them room.
func (c *column) list() postings.List {
	return *postings.FromColumns(exact(c.ids), exact(c.vals), exact(c.pos))
}

// exact returns s with no spare capacity.
func exact[S ~[]E, E any](s S) S {
	if len(s) == cap(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// ascending reports whether run is strictly ascending.
func ascending(run []uint32) bool {
	for i := 1; i < len(run); i++ {
		if run[i] <= run[i-1] {
			return false
		}
	}
	return true
}

// sortRun sorts run in place and returns it with repeats dropped.
func sortRun(run []uint32) []uint32 {
	slices.Sort(run)
	return slices.Compact(run)
}
