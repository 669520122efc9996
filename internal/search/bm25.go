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

// bm25IDF is the Lucene variant of the BM25 inverse document frequency,
// non-negative whenever df <= N: ln(1 + (N − df + 0.5) / (df + 0.5)). It
// is finite for every df, n >= 0: a df past 2^53 rounds the ratio to −1,
// and the floor at the smallest positive float keeps ln from reaching −Inf.
func bm25IDF(df, n int) float64 {
	return math.Log(max(1+(float64(n)-float64(df)+0.5)/(float64(df)+0.5), math.SmallestNonzeroFloat64))
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

// localDF aggregates the engine's own document-frequency vector for q:
// per positive term the DocFreq summed over the partitions (answered from
// the term dictionaries — a lazy partition decodes no posting block for
// it), per scoring prefix operator the summed size of its expansion
// unions. expansions are the per-partition prefix expansion unions (nil
// when the query has none). parts, when non-nil, are the partitions'
// finished evaluations: one that carries its term counts (partResult.df)
// is not asked again. The caller must hold the engine's read lock.
func (e *Engine) localDF(q *Query, expansions [][]*postings.List, parts []partResult) *DocFreqs {
	df := &DocFreqs{
		Docs:     e.files.LiveCount(),
		Tokens:   e.files.LiveTokens(),
		Terms:    make([]int, len(q.positive)),
		Prefixes: make([]int, len(q.scorePrefixes)),
	}
	for p, ix := range e.indices {
		for i, term := range q.positive {
			if parts != nil && parts[p].df != nil {
				df.Terms[i] += parts[p].df[i]
			} else {
				df.Terms[i] += ix.DocFreq(term)
			}
		}
	}
	for j, ord := range q.scorePrefixes {
		for _, exp := range expansions {
			df.Prefixes[j] += exp[ord].Len()
		}
	}
	return df
}

// newBM25Stats derives a request's IDFs and average document length from
// a document-frequency vector: the engine's own (localDF) on a single
// node, or — the distributed-serving path, where this engine's partitions
// are only a subset of the corpus — the corpus-wide vector a broker
// supplies. Document frequencies are integers, so a broker that sums
// per-worker vectors hands every worker the exact numbers a single-node
// engine would have aggregated itself, in any summation order, and the
// derived IDFs (and so every score) come out bit-identical.
func newBM25Stats(q *Query, df *DocFreqs) (*bm25Stats, error) {
	if len(df.Terms) != len(q.positive) || len(df.Prefixes) != len(q.scorePrefixes) {
		return nil, fmt.Errorf("search: document-frequency vector shape (%d terms, %d prefixes) does not match query (%d terms, %d prefixes)",
			len(df.Terms), len(df.Prefixes), len(q.positive), len(q.scorePrefixes))
	}
	st := &bm25Stats{avgdl: 1}
	n := df.Docs
	if n > 0 && df.Tokens > 0 {
		st.avgdl = float64(df.Tokens) / float64(n)
	}
	st.idfTerm = make([]float64, len(df.Terms))
	for i, f := range df.Terms {
		st.idfTerm[i] = bm25IDF(f, n)
	}
	if len(df.Prefixes) > 0 {
		st.idfPrefix = make([]float64, len(df.Prefixes))
		for j, f := range df.Prefixes {
			st.idfPrefix[j] = bm25IDF(f, n)
		}
	}
	return st, nil
}
