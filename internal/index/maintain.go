package index

import (
	"cmp"
	"slices"
	"strings"

	"desksearch/internal/postings"
)

// This file implements index maintenance beyond the paper's batch build:
// a desktop search tool must follow the user's filesystem, removing and
// re-indexing files as they change between full rebuilds.

// RemoveFiles deletes every posting of every file in victims and returns
// the number of postings removed. Terms whose posting lists become empty
// are dropped from the index; every other list is edited in place, and a
// list that holds no victim is left as it is.
//
// The index has no file → terms direction, so removal walks the whole
// dictionary once per batch, in order, against one bitmap of the victims'
// IDs (postings.Mark, the batch's one allocation), and closes the gaps
// emptied terms leave in the same pass; if it dropped a term, it then
// rebuilds the term table, in its own array unless the fewer terms call
// for a smaller one. Beyond that walk it costs the postings of the lists
// whose ID range straddles a victim: each is scanned once against the
// marks (List.Remove), and a list wholly below or above the victims'
// range costs two comparisons. Removing files this index does not hold
// costs no more than that. No victim holds a posting afterwards, so each
// leaves the document set. An emptied term's list header is reset but
// stays in its slab.
func (ix *Index) RemoveFiles(victims *postings.List) int {
	if victims == nil || victims.Len() == 0 {
		return 0
	}
	marks := postings.Mark(victims.IDs()...)
	removed, w := 0, 0
	for i, l := range ix.lists {
		n := l.Remove(&marks)
		removed += n
		if n > 0 && l.Len() == 0 {
			*l = postings.List{}
			continue
		}
		ix.keys[w], ix.lists[w] = ix.keys[i], l
		w++
	}
	if w < len(ix.keys) {
		clear(ix.keys[w:])
		clear(ix.lists[w:])
		ix.keys, ix.lists = ix.keys[:w], ix.lists[:w]
		ix.table.build(ix.keys)
	}
	for _, id := range victims.IDs() {
		if int(id/64) < len(ix.docs) {
			ix.docs[id/64] &^= 1 << (id % 64)
		}
	}
	ix.nPostings -= int64(removed)
	return removed
}

// TermCount is a term with its document frequency.
type TermCount struct {
	Term string
	// Files is the number of files containing the term.
	Files int
}

// TopTerms returns the n most frequent terms by document count, most
// frequent first (ties broken alphabetically, so the result is
// deterministic): TopTermsAcross over the one partition.
func (ix *Index) TopTerms(n int) []TermCount { return TopTermsAcross([]Partition{ix}, n) }

// termDocCounts calls yield for every distinct term of a set of
// document-disjoint partitions, in ascending order, with its document
// count over all of them, until yield returns false. Each file lives in
// exactly one partition, so per-partition document counts add. It merges
// the partitions' ascending TermsFrom walks, each read a batch at a time
// into a buffer of its own: the cost is a pass over each dictionary, a
// seek per batch and a comparison of the walks' current terms per term,
// with no table of terms beside them, and no posting list is cloned,
// merged, joined, or (on a lazy backend) even decoded.
func termDocCounts(parts []Partition, yield func(term string, df int) bool) {
	walks := make([]termWalk, len(parts))
	for i, p := range parts {
		w := &walks[i]
		w.p, w.buf, w.yield = p, make([]TermCount, 0, termWalkBatch), w.add
		w.fill()
	}
	for {
		least, any := "", false
		for i := range walks {
			if w := &walks[i]; w.i < len(w.buf) && (!any || w.buf[w.i].Term < least) {
				least, any = w.buf[w.i].Term, true
			}
		}
		if !any {
			return
		}
		df := 0
		for i := range walks {
			if w := &walks[i]; w.i < len(w.buf) && w.buf[w.i].Term == least {
				df += w.buf[w.i].Files
				if w.i++; w.i == len(w.buf) {
					w.fill()
				}
			}
		}
		if !yield(least, df) {
			return
		}
	}
}

// termWalkBatch is how many terms a termWalk reads per seek.
const termWalkBatch = 256

// termWalk is one partition's ascending dictionary walk: buf[i:] holds the
// terms read and not yet merged, and the walk is over when it is empty.
type termWalk struct {
	p   Partition
	buf []TermCount
	i   int
	// yield is w.add, bound once so that a batch's TermsFrom allocates
	// no closure; last is the term the batch resumes after, skipped while
	// skip holds.
	yield func(term string, df int) bool
	last  string
	skip  bool
}

// fill reads the batch of terms after the last one read.
func (w *termWalk) fill() {
	w.skip = len(w.buf) > 0
	if w.skip {
		w.last = w.buf[len(w.buf)-1].Term
	}
	w.buf, w.i = w.buf[:0], 0
	w.p.TermsFrom(w.last, w.yield)
}

// add takes one term of a batch.
func (w *termWalk) add(term string, df int) bool {
	if w.skip {
		w.skip = false
		if term == w.last {
			return true
		}
	}
	w.buf = append(w.buf, TermCount{Term: term, Files: df})
	return len(w.buf) < cap(w.buf)
}

// DistinctTermsAcross returns the exact number of distinct terms over a set
// of document-disjoint partitions — not the per-partition sum, which counts
// a term once per partition it appears in — by counting the terms of
// termDocCounts' merged walk.
func DistinctTermsAcross(parts []Partition) int {
	if len(parts) == 1 {
		return parts[0].NumTerms()
	}
	n := 0
	termDocCounts(parts, func(string, int) bool {
		n++
		return true
	})
	return n
}

// TopTermsAcross returns the n most frequent terms by document count over a
// set of document-disjoint partitions, most frequent first with ties
// broken alphabetically, from termDocCounts' merged walk. It keeps the n
// best terms met so far in order, so its memory grows with n and not with
// the dictionaries.
func TopTermsAcross(parts []Partition, n int) []TermCount {
	if n <= 0 || len(parts) == 0 {
		return nil
	}
	var top []TermCount
	termDocCounts(parts, func(term string, df int) bool {
		tc := TermCount{Term: term, Files: df}
		if len(top) == n && compareCounts(tc, top[n-1]) > 0 {
			return true
		}
		i, _ := slices.BinarySearchFunc(top, tc, compareCounts)
		top = slices.Insert(top[:min(len(top), n-1)], i, tc)
		return true
	})
	return top
}

// compareCounts orders term counts by descending files, then by term.
func compareCounts(a, b TermCount) int {
	if a.Files != b.Files {
		return cmp.Compare(b.Files, a.Files)
	}
	return strings.Compare(a.Term, b.Term)
}
