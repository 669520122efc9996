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

import (
	"slices"
	"sort"
)

// FileID identifies a file in the indexed corpus. IDs are assigned by
// Stage 1 (filename generation) in traversal order.
type FileID uint32

// List is a posting list: a sorted set of FileIDs, each with a term
// frequency and, on a positional list, the positions it occurs at.
//
// The zero value is an empty list. A build fills each list once, whole,
// through FromColumns; Add and AddN append an ID above every present one
// and insert any other.
//
// The storage is three pointer-free columns, whatever the list's kind.
// Every list owns its columns: no two lists share one, and no list keeps a
// caller's slice unless FromColumns handed it over.
type List struct {
	ids []FileID
	// vals is the per-posting column parallel to ids. On a positional list
	// (pos non-nil) vals[i] is the end of posting i's run in pos, whose
	// start is vals[i-1] (0 for the first posting), and the frequency is
	// the run's length. Otherwise vals[i] is posting i's frequency, and vals
	// is nil when every frequency is 1 — the representation is normalized
	// so the common boolean case allocates nothing.
	vals []uint32
	// pos, when non-nil, holds the ascending token positions (emission
	// ordinals of the build's tokenizer) of every posting, one run after
	// another in ID order. A list is either uniformly positional or not
	// positional at all: a position-free insert (AddN) or merge demotes a
	// positional list to counts.
	pos []uint32
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
		l.vals = append([]uint32(nil), counts...)
		for i, c := range l.vals {
			if c == 0 {
				l.vals[i] = 1
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
// token positions of the term in file ids[i] and must be non-empty. Every
// run is copied into the list's one position column, so the caller keeps
// all of its slices.
func FromSortedIDPositions(ids []FileID, positions [][]uint32) *List {
	if len(ids) == 0 {
		return &List{}
	}
	total := 0
	for _, p := range positions {
		total += len(p)
	}
	l := &List{
		ids:  slices.Clone(ids),
		vals: make([]uint32, 0, len(ids)),
		pos:  make([]uint32, 0, total),
	}
	for _, p := range positions {
		l.pos = append(l.pos, p...)
		l.vals = append(l.vals, uint32(len(l.pos)))
	}
	return l
}

// FromColumns returns a list that takes ids, vals and pos as its columns,
// copying nothing: the caller must not use them afterwards. ids must be
// strictly ascending. With pos nil, vals holds each posting's frequency,
// none of them 0, or is nil when every frequency is 1; otherwise pos holds
// every posting's ascending, non-empty run back to back and vals[i] is the
// end of posting i's run.
func FromColumns(ids []FileID, vals, pos []uint32) *List {
	l := &List{ids: ids, vals: vals, pos: pos}
	if pos == nil {
		l.normalize()
	}
	return l
}

// normalize drops an all-ones frequency column so equal lists share one
// representation regardless of how they were built. Only for a
// non-positional list.
func (l *List) normalize() {
	for _, c := range l.vals {
		if c != 1 {
			return
		}
	}
	l.vals = nil
}

// HasPositions reports whether the list carries per-posting positions —
// the capability probe phrase evaluation uses before walking positions.
func (l *List) HasPositions() bool { return l.pos != nil }

// HasCounts reports whether the list stores an explicit frequency per
// posting. A boolean list (every frequency 1) and a positional list (whose
// frequencies are its run lengths) store none.
func (l *List) HasCounts() bool { return l.vals != nil && l.pos == nil }

// HeapBytes returns the heap bytes of the list's own storage: four per
// ID, per explicit frequency or run end, and per position, over the
// capacity of each column. The List struct is its holder's to count.
func (l *List) HeapBytes() int64 {
	return 4 * int64(cap(l.ids)+cap(l.vals)+cap(l.pos))
}

// run returns the bounds of posting i's run in pos. Only for a positional
// list.
func (l *List) run(i int) (start, end uint32) {
	if i > 0 {
		start = l.vals[i-1]
	}
	return start, l.vals[i]
}

// PositionsAt returns the ascending token positions of the posting at
// position i, or nil for a non-positional list. The returned slice is the
// list's backing storage, capped at the run's end; callers must not modify
// it.
func (l *List) PositionsAt(i int) []uint32 {
	if l.pos == nil {
		return nil
	}
	a, b := l.run(i)
	return l.pos[a:b:b]
}

// demotePositions converts a positional list to plain count storage: the
// per-posting frequencies survive as explicit counts, the positions are
// dropped. It is the meeting point when a positional and a non-positional
// list flow into one operator — positions cannot be invented for the
// non-positional side, so the result keeps only what both sides have. The
// run ends become the counts in place, last posting first, so each still
// reads its predecessor's end.
func (l *List) demotePositions() {
	if l.pos == nil {
		return
	}
	for i := len(l.vals) - 1; i >= 0; i-- {
		l.vals[i] = l.CountAt(i)
	}
	l.pos = nil
	l.normalize()
}

// appendUnion appends the ascending duplicate-free union of the ascending
// runs a and b to dst and returns it.
func appendUnion(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// materializeCounts switches a non-positional list to explicit count
// storage.
func (l *List) materializeCounts() {
	if l.vals != nil {
		return
	}
	l.vals = make([]uint32, len(l.ids))
	for i := range l.vals {
		l.vals[i] = 1
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
	if l.pos != nil {
		a, b := l.run(i)
		return max(b-a, 1)
	}
	if l.vals == nil {
		return 1
	}
	return l.vals[i]
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
// present id is a no-op; on a list with materialized frequencies it
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
	// columns. Uniform build paths never hit this.
	l.demotePositions()
	if n > 1 {
		l.materializeCounts() // for the postings already there
	}
	sz := len(l.ids)
	if sz == 0 || id > l.ids[sz-1] {
		l.ids = append(l.ids, id)
		if l.vals != nil {
			l.vals = append(l.vals, n)
		}
		return
	}
	i := sort.Search(sz, func(i int) bool { return l.ids[i] >= id })
	if i < sz && l.ids[i] == id {
		if l.vals != nil {
			l.vals[i] += n
		}
		return
	}
	l.ids = slices.Insert(l.ids, i, id)
	if l.vals != nil {
		l.vals = slices.Insert(l.vals, i, n)
	}
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
// be invented for the non-positional side. The merge is linear in the
// combined length. Lists that share no ID — every document-disjoint
// partition path — merge into l's own columns, grown once and filled from
// the back, so nothing is allocated while their capacity lasts and a list
// whose IDs all follow l's is an append; overlapping lists merge into
// fresh columns.
func (l *List) Merge(other *List) *List {
	if other == nil || len(other.ids) == 0 {
		return l
	}
	if len(l.ids) == 0 {
		l.ids = append(l.ids, other.ids...)
		l.vals = slices.Clone(other.vals)
		l.pos = slices.Clone(other.pos)
		return l
	}
	withPos := l.pos != nil && other.pos != nil
	if !withPos {
		// Other's positional frequencies still flow through CountAt below;
		// only l's own storage needs the demotion.
		l.demotePositions()
	}
	withCounts := !withPos && (l.vals != nil || other.vals != nil)
	if withCounts {
		l.materializeCounts()
	}
	if l.disjoint(other) {
		l.mergeDisjoint(other)
		return l
	}
	n := len(l.ids) + len(other.ids)
	m := &List{ids: make([]FileID, 0, n)}
	switch {
	case withPos:
		m.vals = make([]uint32, 0, n)
		m.pos = make([]uint32, 0, len(l.pos)+len(other.pos))
	case withCounts:
		m.vals = make([]uint32, 0, n)
	}
	i, j := 0, 0
	for i < len(l.ids) && j < len(other.ids) {
		switch a, b := l.ids[i], other.ids[j]; {
		case a < b:
			k := Gallop(l.ids, i, b)
			m.appendRange(l, i, k)
			i = k
		case b < a:
			k := Gallop(other.ids, j, a)
			m.appendRange(other, j, k)
			j = k
		default:
			m.ids = append(m.ids, a)
			switch {
			case withPos:
				m.pos = appendUnion(m.pos, l.PositionsAt(i), other.PositionsAt(j))
				m.vals = append(m.vals, uint32(len(m.pos)))
			case withCounts:
				m.vals = append(m.vals, l.CountAt(i)+other.CountAt(j))
			}
			i++
			j++
		}
	}
	m.appendRange(l, i, len(l.ids))
	m.appendRange(other, j, len(other.ids))
	*l = *m
	return l
}

// disjoint reports whether l and other share no ID, galloping other's IDs
// through l's: a short list against a long one costs a few searches.
func (l *List) disjoint(other *List) bool {
	j := 0
	for _, id := range other.ids {
		if j = Gallop(l.ids, j, id); j == len(l.ids) {
			return true
		}
		if l.ids[j] == id {
			return false
		}
	}
	return true
}

// mergeDisjoint merges other, which shares no ID with l, into l's columns:
// they grow once to the union's length, and then, from the back, each
// stretch of l's postings above other's last unplaced ID moves up to its
// final slot and the stretch of other's postings above l's last unmoved ID
// is copied in below it. Every write lands at or above its read, so l's
// postings below other's first ID never move. l stores counts if either
// side has frequencies to keep (Merge materializes them).
func (l *List) mergeDisjoint(other *List) {
	n, m := len(l.ids), len(other.ids)
	l.ids = slices.Grow(l.ids, m)[:n+m]
	if l.vals != nil {
		l.vals = slices.Grow(l.vals, m)[:n+m]
	}
	if l.pos != nil {
		l.pos = slices.Grow(l.pos, len(other.pos))[:len(l.pos)+len(other.pos)]
	}
	i, j := n, m // l's unmoved postings are [0, i), other's unplaced [0, j)
	w, wp := n+m, uint32(len(l.pos))
	for j > 0 {
		last := other.ids[j-1]
		k := sort.Search(i, func(x int) bool { return l.ids[x] > last })
		w, wp = l.placeRange(l, k, i, w, wp)
		i, k = k, 0
		if i > 0 {
			first := l.ids[i-1]
			k = sort.Search(j, func(x int) bool { return other.ids[x] > first })
		}
		w, wp = l.placeRange(other, k, j, w, wp)
		j = k
	}
}

// placeRange writes postings [i, j) of src — l itself or the list merging
// into it — so that they end just below slot w of l's columns and their
// runs just below position wp, and returns the slot and position where
// they start. When src is l the stretch moves up: its bounds are read
// before any write, and the copies run from the top, so every read is
// ahead of the writes.
func (l *List) placeRange(src *List, i, j, w int, wp uint32) (int, uint32) {
	if i >= j {
		return w, wp
	}
	start := w - (j - i)
	switch {
	case l.pos != nil:
		a, _ := src.run(i)
		b := src.vals[j-1]
		shift := wp - b // wraps; the sums below wrap back
		copy(l.pos[wp-(b-a):wp], src.pos[a:b])
		for k := j - 1; k >= i; k-- {
			l.vals[start+k-i] = src.vals[k] + shift
		}
		wp -= b - a
	case l.vals != nil:
		for k := j - 1; k >= i; k-- {
			l.vals[start+k-i] = src.CountAt(k)
		}
	}
	copy(l.ids[start:w], src.ids[i:j])
	return start, wp
}

// appendRange appends postings [i, j) of src to l, in l's kind: with their
// runs when l is positional (src must be too), with their frequencies when
// l stores counts, as bare IDs otherwise. src's IDs must all follow l's.
func (l *List) appendRange(src *List, i, j int) {
	if i >= j {
		return
	}
	switch {
	case l.pos != nil:
		a, _ := src.run(i)
		// Rebase src's run ends onto l's column; the subtraction wraps when
		// l's column is the shorter, and the sum wraps back.
		shift := uint32(len(l.pos)) - a
		l.pos = append(l.pos, src.pos[a:src.vals[j-1]]...)
		for _, end := range src.vals[i:j] {
			l.vals = append(l.vals, end+shift)
		}
	case l.vals != nil:
		for k := i; k < j; k++ {
			l.vals = append(l.vals, src.CountAt(k))
		}
	}
	l.ids = append(l.ids, src.ids[i:j]...)
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
		l.vals = nil
		if other.vals != nil {
			l.vals = make([]uint32, len(other.ids))
			for i := range l.vals {
				l.vals[i] = other.CountAt(i)
			}
		}
		return l
	}
	l.materializeCounts()
	return l.Merge(other)
}

// Clone returns an independent copy of the list.
func (l *List) Clone() *List {
	return &List{ids: slices.Clone(l.ids), vals: slices.Clone(l.vals), pos: slices.Clone(l.pos)}
}

// Equal reports whether two lists hold the same postings with the same
// frequencies (an all-ones counts slice equals no counts slice) and — when
// either list is positional — the same positions (a positional list never
// equals a non-positional one).
func (l *List) Equal(other *List) bool {
	if l.Len() != other.Len() || l.HasPositions() != other.HasPositions() {
		return false
	}
	if l.pos != nil {
		// Equal runs everywhere is equal ends and equal positions.
		return slices.Equal(l.ids, other.ids) && slices.Equal(l.vals, other.vals) && slices.Equal(l.pos, other.pos)
	}
	for i, id := range l.ids {
		if other.ids[i] != id || l.CountAt(i) != other.CountAt(i) {
			return false
		}
	}
	return true
}

// Marks is a set of FileIDs held as a bitmap: one bit per ID between its
// smallest and largest member. A batch removal marks its victims once and
// every list it edits tests its own IDs against the marks, so the marks
// are only read after Mark returns and any number of goroutines may share
// them. The zero Marks is the empty set.
type Marks struct {
	words  []uint64 // bit id-lo of words is set for each member id
	lo, hi FileID   // smallest and largest member; words is nil when empty
}

// Mark returns the set of ids, which may come in any order and repeat. Its
// one allocation is the bitmap: a bit per ID from the smallest to the
// largest.
func Mark(ids ...FileID) Marks {
	if len(ids) == 0 {
		return Marks{}
	}
	m := Marks{lo: slices.Min(ids), hi: slices.Max(ids)}
	m.words = make([]uint64, (m.hi-m.lo)/64+1)
	for _, id := range ids {
		d := id - m.lo
		m.words[d/64] |= 1 << (d % 64)
	}
	return m
}

// has reports whether id, which must lie in [m.lo, m.hi], is marked.
func (m *Marks) has(id FileID) bool {
	d := id - m.lo
	return m.words[d/64]&(1<<(d%64)) != 0
}

// Remove deletes from l, in place, every posting whose ID is marked, and
// returns how many it deleted. A list whose IDs all lie below or above the
// marked range returns after two comparisons; any other walks its own IDs
// from the first one in that range, tests each against the marks, and
// compacts in the same pass: survivors keep their frequencies and runs and
// move down over the gaps a stretch at a time, nothing before the first
// marked posting moves, and the columns keep their capacity for the
// inserts an update follows a removal with. A list left empty is
// canonical: it keeps no frequency or position storage, whatever it
// carried.
func (l *List) Remove(victims *Marks) int {
	n := len(l.ids)
	if n == 0 || victims.words == nil || l.ids[0] > victims.hi || l.ids[n-1] < victims.lo {
		return 0
	}
	w, wp := 0, uint32(0) // postings and positions kept so far
	r := 0                // next posting not yet kept or deleted
	removed := 0
	for k := Gallop(l.ids, 0, victims.lo); k < n && l.ids[k] <= victims.hi; k++ {
		if !victims.has(l.ids[k]) {
			continue
		}
		if k > r { // adjacent victims leave nothing to move between them
			w, wp = l.keep(r, k, w, wp)
		}
		r = k + 1
		removed++
	}
	if removed == 0 {
		return 0
	}
	w, wp = l.keep(r, n, w, wp)
	l.ids = l.ids[:w]
	switch {
	case w == 0:
		l.vals, l.pos = nil, nil
	case l.pos != nil:
		l.vals, l.pos = l.vals[:w], l.pos[:wp]
	case l.vals != nil:
		l.vals = l.vals[:w]
		l.normalize()
	}
	return removed
}

// keep moves postings [r, k) down to slot w, their runs to position wp,
// and returns the slot and position after them. w <= r and wp is at most
// the start of posting r's run, so every write lands at or behind its
// read.
func (l *List) keep(r, k, w int, wp uint32) (int, uint32) {
	if r >= k {
		return w, wp
	}
	var a, b uint32
	if l.pos != nil {
		a, _ = l.run(r)
		b = l.vals[k-1]
	}
	if w == r { // nothing deleted yet: the stretch is already in place
		return k, b
	}
	copy(l.ids[w:], l.ids[r:k])
	switch {
	case l.pos != nil:
		copy(l.pos[wp:], l.pos[a:b])
		shift := wp - a // wraps; the sums below wrap back
		for i := r; i < k; i++ {
			l.vals[w+i-r] = l.vals[i] + shift
		}
		wp += b - a
	case l.vals != nil:
		copy(l.vals[w:], l.vals[r:k])
	}
	return w + k - r, wp
}
