package index

import (
	"sort"

	"desksearch/internal/postings"
)

// This file implements index maintenance beyond the paper's batch build:
// a desktop search tool must follow the user's filesystem, removing and
// re-indexing files as they change between full rebuilds.

// RemoveFile deletes every posting of the given file and returns the
// number of postings removed. Terms whose posting lists become empty are
// dropped from the index.
//
// The inverted mapping makes removal a full scan (the index has no
// file → terms direction); that is the structural price of the paper's
// design and the reason desktop search tools batch deletions.
func (ix *Index) RemoveFile(id postings.FileID) int {
	return ix.RemoveFiles(postings.FromIDs([]postings.FileID{id}))
}

// RemoveFiles deletes every posting of every file in victims and returns
// the number of postings removed. One scan over the term map handles the
// whole batch, which is how the incremental update path (internal/delta)
// amortizes the full-scan price of removal across a changeset; it is also
// why removing files absent from this index — routine when a catalog's
// partitions are scanned in parallel and only one owns the file — costs
// only the scan.
func (ix *Index) RemoveFiles(victims *postings.List) int {
	if victims == nil || victims.Len() == 0 {
		return 0
	}
	removed := 0
	var emptied []string
	for term, l := range ix.terms {
		if !postings.Intersects(l, victims) {
			// Most terms in most updates: the list, and every pointer
			// to it, stays as it is.
			continue
		}
		rest := postings.Difference(l, victims)
		removed += l.Len() - rest.Len()
		if rest.Len() == 0 {
			emptied = append(emptied, term)
			continue
		}
		// Assigning to an existing key during range is defined.
		ix.terms[term] = rest
	}
	for _, term := range emptied {
		delete(ix.terms, term)
	}
	if removed > 0 {
		// Not just on emptied terms: the assignment above swaps surviving
		// terms' list pointers, which the sorted dictionary cache holds.
		ix.invalidateSorted()
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
	for term, l := range ix.terms {
		all = append(all, TermCount{Term: term, Files: l.Len()})
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
