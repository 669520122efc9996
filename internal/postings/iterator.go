package postings

import "cmp"

// NoMaxCount is the MaxCount sentinel of iterators that cannot bound
// their per-posting frequencies without doing the decoding work they
// exist to avoid. Consumers must fall back to a frequency-independent
// bound (for BM25, the tf→∞ saturation limit).
const NoMaxCount = ^uint32(0)

// Gallop returns the index of the first element of s at or after from
// that is >= target, or len(s) when there is none; s must ascend from
// from on, and 0 <= from <= len(s). It probes 0, 1, 3, 7, … places ahead
// of from until a probe brackets target, then binary-searches the
// bracket, so an answer d places ahead costs O(log d) comparisons: a run
// of calls from a forward-only cursor costs O(Σ log gap) however the gaps
// fall — one comparison when the cursor does not move, logarithmic per
// call when it leaps. It is the one search of every forward cursor over
// sorted postings: Iterator.SeekGE's and the phrase walk's (file IDs and
// positions).
//
// It is written to fit the compiler's inlining budget (no early return,
// no helper), so every caller's step compiles in place; a call per step
// measured up to 15% slower on a seek.
func Gallop[S ~[]E, E cmp.Ordered](s S, from int, target E) int {
	n, bound := len(s), 0
	for from+bound < n && s[from+bound] < target {
		bound = 2*bound + 1
	}
	// The probe before the last was below target (or there was none), and
	// the last is len(s) or an element >= target: search between them.
	lo, hi := from+(bound+1)/2, min(from+bound, n)
	for lo < hi {
		if m := (lo + hi) >> 1; s[m] < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Iterator is a forward-only streaming cursor over a decoded posting
// list. SeekGE gallops (Gallop), so a run of seeks costs O(Σ log gap)
// comparisons no matter how the gaps are distributed: near-linear when
// the driven list interleaves tightly with the driver, logarithmic per
// seek when it is jumped over in large strides. The iterator reads the
// list in place; the list must not be mutated while a cursor is live.
type Iterator struct {
	l        *List
	i        int    // current posting index; -1 before the first Next/SeekGE
	maxCount uint32 // memoized MaxCount; 0 = not yet computed
}

// NewIterator returns a cursor positioned before l's first posting. A
// nil l iterates the empty list.
func NewIterator(l *List) *Iterator {
	if l == nil {
		l = &List{}
	}
	return &Iterator{l: l, i: -1}
}

// Next advances to the next posting, returning false once the list is
// exhausted.
func (it *Iterator) Next() bool {
	if it.i+1 >= len(it.l.ids) {
		it.i = len(it.l.ids)
		return false
	}
	it.i++
	return true
}

// SeekGE advances to the first posting with ID >= id — never moving
// backwards — and reports whether one exists. A cursor already there
// stays without a search; one that must move gallops from the next
// posting.
func (it *Iterator) SeekGE(id FileID) bool {
	ids, i := it.l.ids, max(it.i, 0)
	if i < len(ids) && ids[i] < id {
		i = Gallop(ids, i+1, id)
	}
	it.i = i
	return i < len(ids)
}

// ID returns the current posting's file ID; valid only after a true
// Next/SeekGE.
func (it *Iterator) ID() FileID { return it.l.ids[it.i] }

// Count returns the current posting's term frequency; valid only after a
// true Next/SeekGE.
func (it *Iterator) Count() uint32 { return it.l.CountAt(it.i) }

// Len returns the list's total posting count (the term's document
// frequency).
func (it *Iterator) Len() int { return len(it.l.ids) }

// MaxCount returns the largest per-posting frequency in the list: 1 for
// boolean lists, otherwise a memoized single scan. It never returns
// NoMaxCount — the list is already decoded, so the exact bound is cheap.
func (it *Iterator) MaxCount() uint32 {
	if it.maxCount != 0 {
		return it.maxCount
	}
	max := uint32(1)
	if it.l.counts != nil || it.l.positions != nil {
		for i := range it.l.ids {
			if c := it.l.CountAt(i); c > max {
				max = c
			}
		}
	}
	it.maxCount = max
	return max
}
