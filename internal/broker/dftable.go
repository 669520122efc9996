package broker

import (
	"sync"

	"desksearch/internal/search"
)

// maxDFEntries bounds the table; a full table is emptied, not grown or
// evicted from — it refills from the next queries' /internal/df rounds.
const maxDFEntries = 4096

// dfTable is the broker's memory of corpus-wide BM25 statistics: the
// document and token counts, and a document frequency per term and per
// prefix operator, as last summed over every group. A query whose keys are
// all present is scattered with these numbers at once instead of asking
// the workers for them first.
//
// Nothing invalidates an entry. Every partial carries its worker's own
// vector for the query, read under the same view of the index as the
// evaluation; the broker sums those and returns a page only when the sum
// equals what the page was scored with (see Broker.query). A stale entry
// therefore costs one re-issued scatter, never a wrong score, and the
// table needs no notion of worker generations — which are per process and
// differ across replicas of one group anyway.
type dfTable struct {
	mu       sync.Mutex
	docs     int
	tokens   uint64
	terms    map[string]int
	prefixes map[string]int
}

// lookup returns the vector for a query with these keys, or nil when any
// of them is unknown.
func (t *dfTable) lookup(terms, prefixes []string) *search.DocFreqs {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.terms == nil {
		return nil // nothing stored yet, not even the corpus counts
	}
	df := &search.DocFreqs{
		Docs:     t.docs,
		Tokens:   t.tokens,
		Terms:    make([]int, len(terms)),
		Prefixes: make([]int, len(prefixes)),
	}
	for i, k := range terms {
		v, ok := t.terms[k]
		if !ok {
			return nil
		}
		df.Terms[i] = v
	}
	for i, k := range prefixes {
		v, ok := t.prefixes[k]
		if !ok {
			return nil
		}
		df.Prefixes[i] = v
	}
	return df
}

// store records df, the summed vector of a query with these keys,
// overwriting what it knew of them.
func (t *dfTable) store(terms, prefixes []string, df *search.DocFreqs) {
	if len(terms)+len(prefixes) > maxDFEntries {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.terms == nil || len(t.terms)+len(t.prefixes)+len(terms)+len(prefixes) > maxDFEntries {
		t.terms, t.prefixes = make(map[string]int), make(map[string]int)
	}
	t.docs, t.tokens = df.Docs, df.Tokens
	for i, k := range terms {
		t.terms[k] = df.Terms[i]
	}
	for i, k := range prefixes {
		t.prefixes[k] = df.Prefixes[i]
	}
}
