package search

import (
	"context"
	"fmt"
	"strings"

	"desksearch/internal/index"
	"desksearch/internal/tokenize"
)

// SuggestPrefix normalizes an autocomplete prefix through the tokenizer,
// as query text is: a trailing '*' is tolerated, so "Repor*" gives
// "repor", and the prefix must yield exactly one term. Suggest completes
// what it returns, and /suggest echoes it.
func SuggestPrefix(prefix string) (string, error) {
	terms := tokenize.Terms([]byte(strings.TrimRight(prefix, "*")))
	switch {
	case len(terms) == 0:
		return "", fmt.Errorf("search: suggest prefix %q contains no searchable term", prefix)
	case len(terms) > 1:
		return "", fmt.Errorf("search: suggest prefix %q must be a single term", prefix)
	}
	return terms[0], nil
}

// Suggest returns up to n dictionary terms starting with prefix, ranked by
// descending document frequency then ascending term — the as-you-type
// completion surface behind Catalog.Suggest and the server's /suggest
// endpoint. The prefix normalizes through SuggestPrefix. n <= 0 applies a
// default of 10. On success the result is never nil — no completions is
// an empty slice — which is what keeps /suggest's "suggestions" a JSON
// array.
//
// Suggest is index.TopTermsAcross over the prefix: one merge of the
// partitions' dictionary cursors, each seeked to the prefix and stopped
// at its first non-matching term. It takes the engine's read lock, so it
// sees the same committed state queries do. A panic fails it with
// CodeInternal, as in Query.
func (e *Engine) Suggest(ctx context.Context, prefix string, n int) (_ []index.TermCount, err error) {
	p, err := SuggestPrefix(prefix)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 10
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	defer recoverInternal(&err)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if out := index.TopTermsAcross(e.indices, p, n); out != nil {
		return out, nil
	}
	return []index.TermCount{}, nil
}
