package search

import (
	"fmt"
	"math"

	"desksearch/internal/postings"
)

// BM25 free parameters: the standard Robertson–Walker defaults. k1 bounds
// term-frequency saturation, b sets how strongly scores are normalized by
// document length.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// bm25Stats is the corpus-global half of BM25 scoring, computed once per
// request before the partition fan-out: per-term document frequencies
// aggregated across every partition and turned into IDFs, plus the average
// document length of the live corpus. Partitions are document-disjoint, so
// per-partition df values sum to the corpus df — aggregating them up front
// is what makes a sharded catalog score bit-identically to the same corpus
// unsharded (each document's score then accumulates from identical
// operands in identical order inside its one owning partition).
type bm25Stats struct {
	// avgdl is the mean token length of the live files (1 when the corpus
	// is empty, so the length normalization never divides by zero).
	avgdl float64
	// idfTerm[i] is the IDF of Query.positive[i].
	idfTerm []float64
	// idfPrefix[j] is the IDF of the pseudo-term for
	// Query.scorePrefixes[j], whose df is the total length of the
	// expansion unions — the number of (file, prefix) matches.
	idfPrefix []float64
}

// bm25IDF is the non-negative Lucene variant of the BM25 inverse document
// frequency: ln(1 + (N − df + 0.5) / (df + 0.5)).
func bm25IDF(df, n int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// score returns one term's BM25 contribution to a document with term
// frequency tf and token length dl:
//
//	idf · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))
func (s *bm25Stats) score(idf float64, tf, dl uint32) float64 {
	t := float64(tf)
	return idf * (t * (bm25K1 + 1)) / (t + bm25K1*(1-bm25B+bm25B*float64(dl)/s.avgdl))
}

// maxScore returns an upper bound on score(idf, tf, dl) over every
// tf <= maxTF and every document length: dl >= 0 shrinks the denominator
// to at most tf + k1·(1−b), and tf/(tf+c) is increasing in tf, so
//
//	idf · maxTF·(k1+1) / (maxTF + k1·(1−b))
//
// dominates every achievable contribution. postings.NoMaxCount (a
// backend that cannot bound tf without decoding) falls back to the tf→∞
// saturation limit idf·(k1+1), which bounds the ratio for every tf. idf
// is nonnegative by construction (the Lucene ln(1+x) variant), so the
// bound is too.
func (s *bm25Stats) maxScore(idf float64, maxTF uint32) float64 {
	if maxTF == postings.NoMaxCount {
		return idf * (bm25K1 + 1)
	}
	t := float64(maxTF)
	return idf * (t * (bm25K1 + 1)) / (t + bm25K1*(1-bm25B))
}

// computeBM25Stats aggregates document frequencies across the engine's
// partitions and derives the request's IDFs and average document length.
// expansions are the per-partition prefix expansion unions (nil when the
// query has none). The caller must hold the engine's read lock.
//
// When global is non-nil — the distributed-serving path, where this
// engine's partitions are only a subset of the corpus — the aggregation is
// skipped entirely and the supplied corpus-wide statistics are used
// instead. Document frequencies are integers, so a broker that sums
// per-worker DocFreqs vectors hands every worker the exact numbers a
// single-node engine would have aggregated itself, in any summation order,
// and the derived IDFs (and so every score) come out bit-identical.
func (e *Engine) computeBM25Stats(q *Query, expansions [][]*postings.List, global *DocFreqs) (*bm25Stats, error) {
	st := &bm25Stats{avgdl: 1}
	if global != nil {
		if len(global.Terms) != len(q.positive) || len(global.Prefixes) != len(q.scorePrefixes) {
			return nil, fmt.Errorf("search: document-frequency vector shape (%d terms, %d prefixes) does not match query (%d terms, %d prefixes)",
				len(global.Terms), len(global.Prefixes), len(q.positive), len(q.scorePrefixes))
		}
		n := global.Docs
		if n > 0 && global.Tokens > 0 {
			st.avgdl = float64(global.Tokens) / float64(n)
		}
		st.idfTerm = make([]float64, len(q.positive))
		for i, df := range global.Terms {
			st.idfTerm[i] = bm25IDF(df, n)
		}
		if len(q.scorePrefixes) > 0 {
			st.idfPrefix = make([]float64, len(q.scorePrefixes))
			for j, df := range global.Prefixes {
				st.idfPrefix[j] = bm25IDF(df, n)
			}
		}
		return st, nil
	}
	n := e.files.LiveCount()
	if total := e.files.LiveTokens(); n > 0 && total > 0 {
		st.avgdl = float64(total) / float64(n)
	}
	st.idfTerm = make([]float64, len(q.positive))
	for i, term := range q.positive {
		df := 0
		for _, ix := range e.indices {
			// DocFreq, not Lookup().Len(): a lazy partition answers it
			// from the term dictionary without decoding the posting block.
			df += ix.DocFreq(term)
		}
		st.idfTerm[i] = bm25IDF(df, n)
	}
	if len(q.scorePrefixes) > 0 {
		st.idfPrefix = make([]float64, len(q.scorePrefixes))
		for j, ord := range q.scorePrefixes {
			df := 0
			for _, exp := range expansions {
				df += exp[ord].Len()
			}
			st.idfPrefix[j] = bm25IDF(df, n)
		}
	}
	return st, nil
}
