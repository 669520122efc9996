package index

import (
	"sort"

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
// emptied terms leave in the same pass. Beyond that walk it costs the
// postings of the lists whose ID range straddles a victim: each is
// scanned once against the marks (List.Remove), and a list wholly below
// or above the victims' range costs two comparisons. Removing files this
// index does not hold costs no more than that. No victim holds a posting
// afterwards, so each leaves the document set. An
// emptied term's list header is reset but stays in its slab.
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
			delete(ix.terms, ix.keys[i])
			*l = postings.List{}
			continue
		}
		ix.keys[w], ix.lists[w] = ix.keys[i], l
		w++
	}
	clear(ix.keys[w:])
	clear(ix.lists[w:])
	ix.keys, ix.lists = ix.keys[:w], ix.lists[:w]
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
// deterministic).
func (ix *Index) TopTerms(n int) []TermCount {
	if n <= 0 {
		return nil
	}
	all := make([]TermCount, 0, ix.NumTerms())
	for i, term := range ix.keys {
		all = append(all, TermCount{Term: term, Files: ix.lists[i].Len()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Files != all[j].Files {
			return all[i].Files > all[j].Files
		}
		return all[i].Term < all[j].Term
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// termDocCounts aggregates per-term document counts over a set of
// document-disjoint partitions in one pass: each file lives in exactly one
// partition, so per-partition document counts add, and the cost is a pass
// over each partition's term dictionary plus a counter per distinct term —
// no posting list is cloned, merged, joined, or (on a lazy backend) even
// decoded.
func termDocCounts(parts []Partition) map[string]int {
	counts := make(map[string]int)
	for _, p := range parts {
		p.TermsFrom("", func(term string, df int) bool {
			counts[term] += df
			return true
		})
	}
	return counts
}

// DistinctTermsAcross returns the exact number of distinct terms over a set
// of document-disjoint partitions — not the per-partition sum, which counts
// a term once per partition it appears in. Like termDocCounts it is one
// pass over each partition's term dictionary, but with a value-free set,
// since only the cardinality is wanted.
func DistinctTermsAcross(parts []Partition) int {
	if len(parts) == 1 {
		return parts[0].NumTerms()
	}
	seen := make(map[string]struct{})
	for _, p := range parts {
		p.TermsFrom("", func(term string, _ int) bool {
			seen[term] = struct{}{}
			return true
		})
	}
	return len(seen)
}

// TopTermsAcross returns the n most frequent terms by document count over a
// set of document-disjoint partitions (replicas or shards), most frequent
// first with ties broken alphabetically, using the same single-pass counter
// as DistinctTermsAcross.
func TopTermsAcross(parts []Partition, n int) []TermCount {
	if n <= 0 || len(parts) == 0 {
		return nil
	}
	counts := termDocCounts(parts)
	all := make([]TermCount, 0, len(counts))
	for term, files := range counts {
		all = append(all, TermCount{Term: term, Files: files})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Files != all[j].Files {
			return all[i].Files > all[j].Files
		}
		return all[i].Term < all[j].Term
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
