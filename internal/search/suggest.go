package search

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"desksearch/internal/tokenize"
)

// Suggestion is one autocomplete candidate: a dictionary term and its
// document frequency.
type Suggestion struct {
	// Term is the indexed term, in normalized form.
	Term string `json:"term"`
	// Files is the number of live files containing the term, summed
	// across partitions (partitions are document-disjoint, so the sum is
	// the true corpus document frequency).
	Files int `json:"files"`
}

// Suggest returns up to n dictionary terms starting with prefix, ranked by
// descending document frequency then ascending term — the as-you-type
// completion surface behind Catalog.Suggest and the server's /suggest
// endpoint. The prefix normalizes through the index's tokenizer (a
// trailing '*' is tolerated, so "Repor*" suggests like "repor") and must
// yield exactly one term. n <= 0 applies a default of 10. On success the
// result is never nil — no completions is an empty slice — which is what
// keeps /suggest's "suggestions" a JSON array.
//
// Suggest seeks each partition's sorted term dictionary to the prefix and
// walks only the matching range; it takes the engine's read lock, so it
// sees the same committed state queries do. Sorted dictionary order (a
// Partition guarantee) makes the result deterministic across backends and
// runs. A panic fails it with CodeInternal, as in Query.
func (e *Engine) Suggest(ctx context.Context, prefix string, n int) (_ []Suggestion, err error) {
	terms := tokenize.Terms([]byte(strings.TrimRight(prefix, "*")))
	switch {
	case len(terms) == 0:
		return nil, fmt.Errorf("search: suggest prefix %q contains no searchable term", prefix)
	case len(terms) > 1:
		return nil, fmt.Errorf("search: suggest prefix %q must be a single term", prefix)
	}
	p := terms[0]
	if n <= 0 {
		n = 10
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	defer recoverInternal(&err)
	e.mu.RLock()
	defer e.mu.RUnlock()
	df := make(map[string]int)
	for _, ix := range e.indices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ix.TermsFrom(p, func(term string, d int) bool {
			if !strings.HasPrefix(term, p) {
				return false
			}
			df[term] += d
			return true
		})
	}
	out := make([]Suggestion, 0, len(df))
	for term, d := range df {
		out = append(out, Suggestion{Term: term, Files: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Files != out[j].Files {
			return out[i].Files > out[j].Files
		}
		return out[i].Term < out[j].Term
	})
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}
