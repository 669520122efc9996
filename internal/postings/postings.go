// Package postings implements the posting lists of the inverted index:
// for each term, the list of files that contain it, with an optional
// per-posting term frequency (how many times the term occurs in the file).
//
// The paper's design inserts one term block per file, with the guarantee
// that each file is scanned exactly once; a posting list therefore never
// sees the same file twice during generation, and duplicate checking — the
// linear search the paper's analysis eliminates — is only needed when lists
// from different runs are merged. Lists keep file IDs sorted so that merge,
// intersection, and union run in linear time.
//
// Term frequencies are stored lazily: a list whose postings all have
// frequency 1 (boolean-only corpora, NOT universes, intermediate query
// results) carries no count storage at all, so the frequency feature costs
// nothing until a build actually records real counts.
package postings

import "sort"

// FileID identifies a file in the indexed corpus. IDs are assigned by
// Stage 1 (filename generation) in traversal order.
type FileID uint32

// List is a posting list: a sorted set of FileIDs, each with a term
// frequency.
//
// The zero value is an empty list. Lists built exclusively through Add with
// the generator's one-block-per-file discipline stay sorted for free when
// IDs arrive in order; Add handles out-of-order arrival (as happens with
// parallel extractors) by insertion.
type List struct {
	ids []FileID
	// counts holds the per-posting term frequency, parallel to ids. nil
	// means every frequency is 1 — the representation is normalized so the
	// common boolean case allocates nothing. counts is never populated
	// while positions is set: a positional posting's frequency is the
	// length of its position list.
	counts []uint32
	// positions, when non-nil, is parallel to ids: positions[i] holds the
	// ascending token positions (emission ordinals of the build's
	// tokenizer) at which the term occurs in file ids[i]. A list is either
	// uniformly positional (every insertion went through AddPositions /
	// FromSortedIDPositions) or not positional at all; the two insertion
	// disciplines must not be mixed within one list.
	positions [][]uint32
}

// FromIDs builds a list from ids, sorting and deduplicating as needed.
// Every posting gets frequency 1.
func FromIDs(ids []FileID) *List {
	l := &List{ids: append([]FileID(nil), ids...)}
	sort.Slice(l.ids, func(i, j int) bool { return l.ids[i] < l.ids[j] })
	l.dedupSorted()
	return l
}

// FromSortedIDs builds a list from ids, which must already be strictly
// ascending (the invariant of every posting list's own IDs). It copies but
// skips the sort and dedup FromIDs pays. Every posting gets frequency 1.
func FromSortedIDs(ids []FileID) *List {
	return &List{ids: append([]FileID(nil), ids...)}
}

// FromSortedIDCounts builds a list from strictly ascending ids and their
// parallel frequencies. counts may be nil (all frequencies 1) or must have
// len(counts) == len(ids); a zero frequency is recorded as 1, matching
// AddN (Encode biases frequencies by -1, so a zero must never be stored).
// Both slices are copied.
func FromSortedIDCounts(ids []FileID, counts []uint32) *List {
	l := &List{ids: append([]FileID(nil), ids...)}
	if counts != nil {
		l.counts = append([]uint32(nil), counts...)
		for i, c := range l.counts {
			if c == 0 {
				l.counts[i] = 1
			}
		}
		l.normalize()
	}
	return l
}

func (l *List) dedupSorted() {
	out := l.ids[:0]
	for i, id := range l.ids {
		if i == 0 || id != l.ids[i-1] {
			out = append(out, id)
		}
	}
	l.ids = out
}

// FromSortedIDPositions builds a positional list from strictly ascending
// ids and their parallel position lists: positions[i] holds the ascending
// token positions of the term in file ids[i] and must be non-empty. The
// outer slices are copied; the inner position slices are shared and must
// be treated as read-only by the caller afterwards (no code path mutates a
// stored position slice in place).
func FromSortedIDPositions(ids []FileID, positions [][]uint32) *List {
	return &List{
		ids:       append([]FileID(nil), ids...),
		positions: append([][]uint32(nil), positions...),
	}
}

// normalize drops an all-ones counts slice so equal lists share one
// representation regardless of how they were built.
func (l *List) normalize() {
	for _, c := range l.counts {
		if c != 1 {
			return
		}
	}
	l.counts = nil
}

// HasPositions reports whether the list carries per-posting positions —
// the capability probe phrase evaluation uses before walking positions.
func (l *List) HasPositions() bool { return l.positions != nil }

// HasCounts reports whether the list stores an explicit frequency per
// posting. A boolean list (every frequency 1) and a positional list (whose
// frequencies are its run lengths) store none.
func (l *List) HasCounts() bool { return l.counts != nil }

// PositionsAt returns the ascending token positions of the posting at
// position i, or nil for a non-positional list. The returned slice is the
// list's backing storage; callers must not modify it.
func (l *List) PositionsAt(i int) []uint32 {
	if l.positions == nil {
		return nil
	}
	return l.positions[i]
}

// demotePositions converts a positional list to plain count storage: the
// per-posting frequencies survive as explicit counts, the positions are
// dropped. It is the meeting point when a positional and a non-positional
// list flow into one operator — positions cannot be invented for the
// non-positional side, so the result keeps only what both sides have.
func (l *List) demotePositions() {
	if l.positions == nil {
		return
	}
	l.counts = make([]uint32, len(l.positions))
	for i, p := range l.positions {
		if n := len(p); n > 0 {
			l.counts[i] = uint32(n)
		} else {
			l.counts[i] = 1
		}
	}
	l.positions = nil
	l.normalize()
}

// materializePositions switches the list to explicit position storage.
// Pre-existing postings (which should not exist under the uniform-insertion
// discipline) get nil position lists.
func (l *List) materializePositions() {
	if l.positions == nil {
		l.positions = make([][]uint32, len(l.ids))
	}
}

// AddPositions inserts id with the given ascending, non-empty position
// list, keeping the list sorted and duplicate-free; it is the positional
// counterpart of AddN (the posting's frequency is len(pos)). The list
// takes ownership of pos. Re-adding a present id merges the position sets.
// The common fast path — id greater than every present posting — is O(1)
// amortized, matching the generator's one-block-per-file discipline.
func (l *List) AddPositions(id FileID, pos []uint32) {
	if len(pos) == 0 {
		return
	}
	if l.positions == nil && len(l.ids) > 0 {
		// The list already holds position-free postings (a positional
		// insert into a list built without positions). Positions cannot be
		// retrofitted onto the existing postings, so record the frequency
		// and stay non-positional rather than desync the parallel slices —
		// the mirror of AddN's demotion rule.
		l.AddN(id, uint32(len(pos)))
		return
	}
	// The codec delta-codes position runs with strictly positive gaps, so
	// a non-ascending or duplicated run would be unencodable; sanitize the
	// rare violation instead of persisting corruption. The check is one
	// branch per position on the (always-ascending) hot path.
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			pos = sortedDedupPositions(pos)
			break
		}
	}
	l.materializePositions()
	sz := len(l.ids)
	if sz == 0 || id > l.ids[sz-1] {
		l.ids = append(l.ids, id)
		l.positions = append(l.positions, pos)
		return
	}
	i := sort.Search(sz, func(i int) bool { return l.ids[i] >= id })
	if i < sz && l.ids[i] == id {
		l.positions[i] = unionPositions(l.positions[i], pos)
		return
	}
	l.ids = append(l.ids, 0)
	copy(l.ids[i+1:], l.ids[i:])
	l.ids[i] = id
	l.positions = append(l.positions, nil)
	copy(l.positions[i+1:], l.positions[i:])
	l.positions[i] = pos
}

// sortedDedupPositions returns pos sorted ascending with duplicates
// removed, mutating pos in place.
func sortedDedupPositions(pos []uint32) []uint32 {
	sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	out := pos[:1]
	for _, p := range pos[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// unionPositions merges two ascending position lists into a fresh ascending
// duplicate-free slice. Neither input is mutated.
func unionPositions(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// materializeCounts switches the list to explicit count storage.
func (l *List) materializeCounts() {
	if l.counts != nil {
		return
	}
	l.counts = make([]uint32, len(l.ids))
	for i := range l.counts {
		l.counts[i] = 1
	}
}

// Len returns the number of postings.
func (l *List) Len() int { return len(l.ids) }

// IDs returns the postings in ascending order. The returned slice is the
// list's backing storage; callers must not modify it.
func (l *List) IDs() []FileID { return l.ids }

// CountAt returns the term frequency of the posting at position i. On a
// positional list the frequency is derived — one occurrence per recorded
// position — so counts and positions can never disagree.
func (l *List) CountAt(i int) uint32 {
	if l.positions != nil {
		if n := len(l.positions[i]); n > 0 {
			return uint32(n)
		}
		return 1
	}
	if l.counts == nil {
		return 1
	}
	return l.counts[i]
}

// CountOf returns the term frequency recorded for id, or 0 if id is not in
// the list.
func (l *List) CountOf(id FileID) uint32 {
	i := sort.Search(len(l.ids), func(i int) bool { return l.ids[i] >= id })
	if i >= len(l.ids) || l.ids[i] != id {
		return 0
	}
	return l.CountAt(i)
}

// Contains reports whether id is in the list.
func (l *List) Contains(id FileID) bool {
	i := sort.Search(len(l.ids), func(i int) bool { return l.ids[i] >= id })
	return i < len(l.ids) && l.ids[i] == id
}

// Add inserts id with frequency 1, keeping the list sorted and
// duplicate-free. On a boolean (implicit-frequency) list, re-adding a
// present id is a no-op — the set semantics the immediate-insertion
// ablation path relies on; on a list with materialized frequencies it
// records one more occurrence, like AddN(id, 1). The common fast path —
// id greater than every present posting — is O(1) amortized.
func (l *List) Add(id FileID) { l.AddN(id, 1) }

// AddN inserts id with frequency n (n == 0 is recorded as 1). Re-adding a
// present id sums frequencies, matching Merge's discipline — except the
// pure boolean case (n == 1 into a list with implicit counts), which
// keeps Add's set semantics.
func (l *List) AddN(id FileID, n uint32) {
	if n == 0 {
		n = 1
	}
	// A position-free insertion into a positional list cannot keep the
	// positions truthful; demote to plain counts rather than desync the
	// parallel slices. Uniform build paths never hit this.
	l.demotePositions()
	sz := len(l.ids)
	if sz == 0 || id > l.ids[sz-1] {
		l.ids = append(l.ids, id)
		l.appendCount(n)
		return
	}
	i := sort.Search(sz, func(i int) bool { return l.ids[i] >= id })
	if i < sz && l.ids[i] == id {
		if n > 1 || l.counts != nil {
			l.materializeCounts()
			l.counts[i] += n
		}
		return
	}
	l.ids = append(l.ids, 0)
	copy(l.ids[i+1:], l.ids[i:])
	l.ids[i] = id
	if n > 1 {
		// ids already grew, so materialization covers the inserted slot too;
		// the shift below then moves all-ones over all-ones harmlessly.
		l.materializeCounts()
	}
	if l.counts != nil {
		if len(l.counts) < len(l.ids) {
			l.counts = append(l.counts, 0)
		}
		copy(l.counts[i+1:], l.counts[i:])
		l.counts[i] = n
	}
}

// appendCount records the frequency of a posting just appended to ids.
func (l *List) appendCount(n uint32) {
	if n == 1 && l.counts == nil {
		return
	}
	if l.counts == nil {
		// The new id is already in ids; materialize counts for the others.
		l.counts = make([]uint32, len(l.ids)-1, len(l.ids))
		for i := range l.counts {
			l.counts[i] = 1
		}
	}
	l.counts = append(l.counts, n)
}

// Merge destructively merges other into l (set union) and returns l; other
// is only read. When either list carries explicit frequencies, frequencies
// of postings present in both sum; when both are boolean (implicit
// all-ones) lists the overlap keeps frequency 1 — set semantics, so
// query-time unions of match sets never materialize count storage. Callers
// merging counted data that may overlap (none of the document-disjoint
// partition paths do) must not rely on the boolean exception.
//
// Positions survive only when both lists carry them (postings present in
// both merge their position sets); a merge of a positional and a
// non-positional list demotes to explicit counts, since positions cannot
// be invented for the non-positional side. The two-pointer merge is linear
// in the combined length.
func (l *List) Merge(other *List) *List {
	if other == nil || len(other.ids) == 0 {
		return l
	}
	if len(l.ids) == 0 {
		l.ids = append(l.ids, other.ids...)
		l.counts = nil
		l.positions = nil
		if other.positions != nil {
			l.positions = append([][]uint32(nil), other.positions...)
		} else if other.counts != nil {
			l.counts = append([]uint32(nil), other.counts...)
		}
		return l
	}
	withPos := l.positions != nil && other.positions != nil
	if !withPos {
		// Other's positional frequencies still flow through CountAt below;
		// only l's own storage needs the demotion.
		l.demotePositions()
	}
	withCounts := !withPos && (l.counts != nil || other.counts != nil || other.positions != nil)
	// Fast path: disjoint ranges, the usual case when replicas own
	// round-robin slices of the corpus.
	if l.ids[len(l.ids)-1] < other.ids[0] {
		if withPos {
			l.positions = append(l.positions, other.positions...)
		} else if withCounts {
			l.materializeCounts()
			for i := range other.ids {
				l.counts = append(l.counts, other.CountAt(i))
			}
		}
		l.ids = append(l.ids, other.ids...)
		return l
	}
	if other.ids[len(other.ids)-1] < l.ids[0] {
		merged := make([]FileID, 0, len(l.ids)+len(other.ids))
		merged = append(merged, other.ids...)
		merged = append(merged, l.ids...)
		if withPos {
			positions := make([][]uint32, 0, len(merged))
			positions = append(positions, other.positions...)
			positions = append(positions, l.positions...)
			l.positions = positions
		} else if withCounts {
			counts := make([]uint32, 0, len(merged))
			for i := range other.ids {
				counts = append(counts, other.CountAt(i))
			}
			for i := range l.ids {
				counts = append(counts, l.CountAt(i))
			}
			l.counts = counts
		}
		l.ids = merged
		return l
	}
	merged := make([]FileID, 0, len(l.ids)+len(other.ids))
	var counts []uint32
	if withCounts {
		counts = make([]uint32, 0, len(l.ids)+len(other.ids))
	}
	var positions [][]uint32
	if withPos {
		positions = make([][]uint32, 0, len(l.ids)+len(other.ids))
	}
	i, j := 0, 0
	for i < len(l.ids) && j < len(other.ids) {
		a, b := l.ids[i], other.ids[j]
		switch {
		case a < b:
			merged = append(merged, a)
			if withCounts {
				counts = append(counts, l.CountAt(i))
			}
			if withPos {
				positions = append(positions, l.positions[i])
			}
			i++
		case b < a:
			merged = append(merged, b)
			if withCounts {
				counts = append(counts, other.CountAt(j))
			}
			if withPos {
				positions = append(positions, other.positions[j])
			}
			j++
		default:
			merged = append(merged, a)
			if withCounts {
				counts = append(counts, l.CountAt(i)+other.CountAt(j))
			}
			if withPos {
				positions = append(positions, unionPositions(l.positions[i], other.positions[j]))
			}
			i++
			j++
		}
	}
	for ; i < len(l.ids); i++ {
		merged = append(merged, l.ids[i])
		if withCounts {
			counts = append(counts, l.CountAt(i))
		}
		if withPos {
			positions = append(positions, l.positions[i])
		}
	}
	for ; j < len(other.ids); j++ {
		merged = append(merged, other.ids[j])
		if withCounts {
			counts = append(counts, other.CountAt(j))
		}
		if withPos {
			positions = append(positions, other.positions[j])
		}
	}
	l.ids = merged
	l.counts = counts
	if withPos {
		l.positions = positions
	}
	return l
}

// MergeCounted merges other into l like Merge, for an accumulator that
// wants frequencies and nothing else: the result never carries positions,
// and the frequencies of a posting present in both always sum — also when
// both sides are boolean lists, where Merge keeps set semantics. It is how
// a prefix operator's expansion adds up a file's occurrences over the
// matched terms, and it reads the same numbers from a positional list (its
// run lengths) as from the position-free decode of the same block.
func (l *List) MergeCounted(other *List) *List {
	if other == nil || len(other.ids) == 0 {
		return l
	}
	l.demotePositions()
	if len(l.ids) == 0 {
		l.ids = append(l.ids, other.ids...)
		l.counts = nil
		if other.counts != nil || other.positions != nil {
			l.counts = make([]uint32, len(other.ids))
			for i := range l.counts {
				l.counts[i] = other.CountAt(i)
			}
		}
		return l
	}
	l.materializeCounts()
	return l.Merge(other)
}

// WithoutCounts returns a frequency- and position-free view of the list:
// same IDs, every frequency 1. The view shares the ID storage and must be
// treated as read-only; lists already in the implicit all-ones form return
// themselves. Set-algebra pipelines (query match sets) use it so
// frequencies and positions are not copied through operators that never
// read them.
func (l *List) WithoutCounts() *List {
	if l.counts == nil && l.positions == nil {
		return l
	}
	return &List{ids: l.ids}
}

// Clone returns an independent copy of the list.
func (l *List) Clone() *List {
	out := &List{ids: append([]FileID(nil), l.ids...)}
	if l.counts != nil {
		out.counts = append([]uint32(nil), l.counts...)
	}
	if l.positions != nil {
		out.positions = make([][]uint32, len(l.positions))
		for i, p := range l.positions {
			out.positions[i] = append([]uint32(nil), p...)
		}
	}
	return out
}

// Equal reports whether two lists hold the same postings with the same
// frequencies (an all-ones counts slice equals no counts slice) and — when
// either list is positional — the same positions (a positional list never
// equals a non-positional one).
func (l *List) Equal(other *List) bool {
	if l.Len() != other.Len() {
		return false
	}
	if (l.positions != nil) != (other.positions != nil) {
		return false
	}
	for i, id := range l.ids {
		if other.ids[i] != id || l.CountAt(i) != other.CountAt(i) {
			return false
		}
		if l.positions != nil {
			a, b := l.positions[i], other.positions[i]
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
	}
	return true
}

// Intersects reports whether a and b share a posting. It allocates
// nothing and stops at the first common ID.
func Intersects(a, b *List) bool {
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		x, y := a.ids[i], b.ids[j]
		switch {
		case x < y:
			i++
		case y < x:
			j++
		default:
			return true
		}
	}
	return false
}

// Difference returns the postings in a but not in b (boolean AND NOT),
// keeping a's frequencies — and, for a positional a, its positions — for
// the survivors. Position slices are shared with a, not copied; the
// incremental-update removal scan (index.RemoveFiles) relies on this to
// keep positional postings intact without re-allocating them.
func Difference(a, b *List) *List {
	out := &List{ids: make([]FileID, 0, a.Len())}
	if a.positions != nil {
		out.positions = make([][]uint32, 0, a.Len())
	} else if a.counts != nil {
		out.counts = make([]uint32, 0, a.Len())
	}
	i, j := 0, 0
	for i < len(a.ids) {
		for j < len(b.ids) && b.ids[j] < a.ids[i] {
			j++
		}
		if j >= len(b.ids) || b.ids[j] != a.ids[i] {
			out.ids = append(out.ids, a.ids[i])
			if out.positions != nil {
				out.positions = append(out.positions, a.positions[i])
			} else if out.counts != nil {
				out.counts = append(out.counts, a.counts[i])
			}
		}
		i++
	}
	if out.counts != nil {
		out.normalize()
	}
	if len(out.ids) == 0 {
		// Keep the empty list canonical: no payload storage, regardless of
		// what a carried.
		out.counts, out.positions = nil, nil
	}
	return out
}
