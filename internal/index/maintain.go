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
	Term string `json:"term"`
	// Files is the number of files containing the term.
	Files int `json:"files"`
}

// termDocCounts calls yield for every distinct term starting with prefix
// of a set of document-disjoint partitions, in ascending order, with its
// document count over all of them, until yield returns false. Each file
// lives in exactly one partition, so per-partition document counts add. It
// merges the partitions' TermsFrom(prefix) cursors, each ending at its
// first term without the prefix: the cost is a pass over each matching
// range and a comparison of the cursors' current terms per term, with no
// table of terms beside them, and no posting list is cloned, merged,
// joined, or (on a lazy backend) even decoded.
func termDocCounts(parts []Partition, prefix string, yield func(term string, df int) bool) {
	heads := make([]termHead, len(parts))
	for i, p := range parts {
		heads[i].w = p.TermsFrom(prefix)
		heads[i].next(prefix)
	}
	for {
		least, any := "", false
		for i := range heads {
			if h := &heads[i]; h.ok && (!any || h.term < least) {
				least, any = h.term, true
			}
		}
		if !any {
			return
		}
		df := 0
		for i := range heads {
			if h := &heads[i]; h.ok && h.term == least {
				df += h.df
				h.next(prefix)
			}
		}
		if !yield(least, df) {
			return
		}
	}
}

// termHead is one partition's cursor in termDocCounts' merge and the term
// it is at; ok is false once the cursor has passed the prefix's range.
type termHead struct {
	w    TermWalk
	term string
	df   int
	ok   bool
}

func (h *termHead) next(prefix string) {
	h.term, h.df, h.ok = h.w.Next()
	h.ok = h.ok && strings.HasPrefix(h.term, prefix)
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
	termDocCounts(parts, "", func(string, int) bool {
		n++
		return true
	})
	return n
}

// TopTermsAcross returns the n most frequent terms starting with prefix
// by document count over a set of document-disjoint partitions, ordered by
// CompareTermCounts, from termDocCounts' merged walk: prefix "" ranks the
// whole dictionary, a word's first letters its completions. It keeps the
// n best terms met so far in order, so its memory grows with n and not
// with the dictionaries.
func TopTermsAcross(parts []Partition, prefix string, n int) []TermCount {
	if n <= 0 || len(parts) == 0 {
		return nil
	}
	var top []TermCount
	termDocCounts(parts, prefix, func(term string, df int) bool {
		tc := TermCount{Term: term, Files: df}
		if len(top) == n && CompareTermCounts(tc, top[n-1]) > 0 {
			return true
		}
		i, _ := slices.BinarySearchFunc(top, tc, CompareTermCounts)
		top = slices.Insert(top[:min(len(top), n-1)], i, tc)
		return true
	})
	return top
}

// CompareTermCounts orders term counts by descending files, then by term:
// the one order of every ranked term list (TopTerms, suggestions, and a
// broker's merge of its workers' suggestions).
func CompareTermCounts(a, b TermCount) int {
	if a.Files != b.Files {
		return cmp.Compare(b.Files, a.Files)
	}
	return strings.Compare(a.Term, b.Term)
}
