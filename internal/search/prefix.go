package search

import (
	"errors"
	"fmt"
	"strings"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// MaxPrefixTerms is the default cap on how many dictionary terms one
// prefix operator may expand to within a single partition — applied when
// a request leaves Request.MaxPrefixTerms at 0. A short prefix over a
// large corpus would otherwise union a huge slice of the dictionary per
// query; past the cap the query fails with ErrPrefixTooBroad instead of
// degrading every other caller, and the fix — lengthen the prefix or
// raise the cap — is in the error.
const MaxPrefixTerms = 1024

// effectivePrefixCap resolves a request's prefix-expansion cap: 0 means
// the MaxPrefixTerms default (Request.Validate rejects negative values).
func effectivePrefixCap(cap int) int {
	if cap <= 0 {
		return MaxPrefixTerms
	}
	return cap
}

// ErrPrefixTooBroad reports a prefix operator that expands past
// MaxPrefixTerms dictionary terms in some partition. Errors wrapping it
// name the offending prefix.
var ErrPrefixTooBroad = errors.New("search: prefix matches too many terms")

// expandPrefixes precomputes one partition's expansion of every prefix
// operator in q: for each prefix ordinal, the union of the posting lists
// of every dictionary term carrying that prefix, with per-file occurrence
// counts summed across the matched terms (so TF and BM25 score the
// operator as one pseudo-term). Returns nil when the query has no prefix
// operators. Expansion happens before evaluation fans out, which both
// keeps the cap error independent of boolean short-circuiting and lets
// BM25 aggregate the unions' document frequencies globally.
//
// Each prefix seeks to its start of the sorted dictionary and walks only
// the matching range, so expansion cost tracks the prefix's selectivity,
// not the dictionary size — and on a lazy backend only the matched terms'
// posting blocks are decoded. Sorted term order (a Partition guarantee)
// makes the union's construction order, and hence positional merges,
// identical across backends.
//
// positions says the caller reads the unions' positions — a request for
// snippets anchors its windows on them — and makes each union a positional
// merge of the terms' full lists (Lookup). Everything else wants a match
// set and the summed frequencies, and gets them from Counts: the numbers
// are the same (a file's occurrences under two terms are disjoint
// positions, so the merged run is as long as the counts' sum), and a lazy
// segment decodes no position for them.
func expandPrefixes(ix index.Partition, q *Query, maxTerms int, positions bool) ([]*postings.List, error) {
	if len(q.prefixes) == 0 {
		return nil, nil
	}
	limit := effectivePrefixCap(maxTerms)
	out := make([]*postings.List, len(q.prefixes))
	for i, p := range q.prefixes {
		u := &postings.List{}
		matches := 0
		var broad error
		ix.TermsFrom(p, func(term string, _ int) bool {
			if !strings.HasPrefix(term, p) {
				return false
			}
			matches++
			if matches > limit {
				broad = &QueryError{Code: CodePrefixTooBroad, Err: fmt.Errorf("%w: %q matches over %d terms in one partition (lengthen the prefix or raise the cap)",
					ErrPrefixTooBroad, p+"*", limit)}
				return false
			}
			if positions {
				u.Merge(ix.Lookup(term))
			} else {
				u.MergeCounted(ix.Counts(term))
			}
			return true
		})
		if broad != nil {
			return nil, broad
		}
		out[i] = u
	}
	return out, nil
}
