// Worker endpoints: the internal surface a scatter-gather broker fans
// queries out to, enabled by Config.Worker (dsearchd -worker). Three
// routes, mirroring the two-phase distributed query protocol:
//
//	GET  /internal/meta    which global shards this worker serves, out of
//	                       how many — the broker's topology check
//	GET  /internal/df      the worker's local document-frequency vector
//	                       for a query (phase one of distributed BM25)
//	POST /internal/search  evaluate a query, optionally under broker-
//	                       supplied global document frequencies, and
//	                       return the local top-k with bit-exact scores
//
// Scores travel as math.Float64bits integers, not JSON floats: the
// invariant the broker maintains — distributed results bit-identical to a
// single-node evaluation — must not hinge on any JSON library's float
// formatting, so the wire carries the exact bit pattern.
//
// Worker search responses bypass the public result cache. The broker has
// its own view of result identity (generation vector across workers), and
// a worker's partial under broker-supplied global statistics is not the
// same value the public /search would cache for that query text.
package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"desksearch"
)

// WorkerMeta is the JSON shape of GET /internal/meta: the worker's place
// in the directory's shard topology plus the capability flags a broker
// validates before admitting it to a replica group.
type WorkerMeta struct {
	// Shards lists the global shard numbers this worker serves, ascending.
	Shards []int `json:"shards"`
	// TotalShards is the full shard count of the directory — every worker
	// of one deployment must agree on it.
	TotalShards int `json:"total_shards"`
	// Files is the directory-wide live file count (from the shared
	// manifest, so identical across workers of one directory).
	Files int `json:"files"`
	// Generation is the worker's catalog generation.
	Generation uint64 `json:"generation"`
	// Positional reports whether phrase queries and snippets work here.
	Positional bool `json:"positional"`
}

// DFResponse is the JSON shape of GET /internal/df?q=...: the worker's
// local document-frequency vector for the normalized query, in the shape
// desksearch.DocFreqs defines. Brokers sum these integer vectors across
// shard groups — integer addition is exact and order-independent, which
// is what keeps the downstream BM25 scores bit-identical.
type DFResponse struct {
	// Query is the canonical form of the normalized expression the vector
	// was computed for; the broker cross-checks it against its own parse.
	Query string `json:"query"`
	// Docs and Tokens are corpus-wide (from the shared file table):
	// identical on every worker of one directory, verified by the broker
	// rather than summed.
	Docs   int    `json:"docs"`
	Tokens uint64 `json:"tokens"`
	// Terms and Prefixes are this worker's local df counts per positive
	// term and per scored prefix, in normalized query order.
	Terms    []int `json:"terms"`
	Prefixes []int `json:"prefixes"`
	// Generation is the worker's catalog generation at computation time.
	Generation uint64 `json:"generation"`
}

// InternalSearchRequest is the JSON body of POST /internal/search.
type InternalSearchRequest struct {
	// Query is the canonical query text (the broker sends its normalized
	// parse's String form, which re-parses to itself).
	Query string `json:"query"`
	// Limit caps the returned hits — the broker sends the user's
	// limit+offset so its merge has enough candidates from every worker,
	// and applies the offset itself after merging. Zero means unlimited.
	Limit int `json:"limit"`
	// Rank is the ranking's wire name (count, tf, bm25); empty means count.
	Rank string `json:"rank,omitempty"`
	// PathPrefix restricts hits to paths under it.
	PathPrefix string `json:"path_prefix,omitempty"`
	// Snippets asks for per-hit context windows.
	Snippets bool `json:"snippets,omitempty"`
	// MaxPrefixTerms caps prefix-operator expansion per partition
	// (desksearch.Query.MaxPrefixTerms); zero applies the default. The
	// broker forwards the client's cap so every worker rejects an
	// over-broad prefix at the same threshold a single node would.
	MaxPrefixTerms int `json:"max_prefix_terms,omitempty"`
	// DF, when present with bm25, carries the broker's pre-aggregated
	// corpus-global document frequencies (desksearch.Query.GlobalDF).
	DF *DFPayload `json:"df,omitempty"`
}

// DFPayload is a document-frequency vector on the wire — the summed
// global statistics a broker attaches to phase-two search requests.
type DFPayload struct {
	Docs     int    `json:"docs"`
	Tokens   uint64 `json:"tokens"`
	Terms    []int  `json:"terms"`
	Prefixes []int  `json:"prefixes"`
}

// InternalSearchResponse is the JSON shape of POST /internal/search.
type InternalSearchResponse struct {
	// Total counts this worker's matches (its partitions' share of the
	// corpus-wide total; workers are document-disjoint, so totals add).
	Total int `json:"total"`
	// Generation is the worker's catalog generation for this evaluation.
	Generation uint64 `json:"generation"`
	// Hits is the worker-local top-k page, in merged rank order.
	Hits []InternalHit `json:"hits"`
	// Partitions reports per-partition match counts and evaluation times,
	// keyed by global shard number — the timing feed for the broker's
	// adaptive timeouts and hedging delays.
	Partitions []PartitionStat `json:"partitions"`
}

// InternalHit is one candidate hit of a worker's partial result.
type InternalHit struct {
	// File is the directory-wide document ID — the merge tie-break key,
	// comparable across workers because the file table is shared.
	File uint32 `json:"file"`
	// Path is the file's path relative to the indexed root.
	Path string `json:"path"`
	// ScoreBits is math.Float64bits of the hit's score: the exact bit
	// pattern, immune to any float formatting on the wire.
	ScoreBits uint64 `json:"score_bits"`
	// Terms lists the matched query terms, as in the public API.
	Terms []string `json:"terms,omitempty"`
	// Snippet is present when the request asked for snippets and the hit
	// produced one.
	Snippet *desksearch.Snippet `json:"snippet,omitempty"`
}

// handleWorkerMeta serves GET /internal/meta.
func (s *Server) handleWorkerMeta(w http.ResponseWriter, r *http.Request) {
	cs, gen := s.catalogStats()
	writeJSON(w, http.StatusOK, WorkerMeta{
		Shards:      s.cat.PartitionIDs(),
		TotalShards: s.cat.TotalShards(),
		Files:       cs.Files,
		Generation:  gen,
		Positional:  s.cat.Positional(),
	})
}

// handleWorkerDF serves GET /internal/df?q=... — phase one of a
// distributed BM25 query.
func (s *Server) handleWorkerDF(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	query := desksearch.Query{Text: q}
	if v := r.URL.Query().Get("max_prefix_terms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid max_prefix_terms %q", v)
			return
		}
		query.MaxPrefixTerms = n
	}
	req, _, err := query.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	gen := s.cat.Generation()
	df, err := s.cat.DocFreqs(ctx, req)
	if err != nil {
		s.writeWorkerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DFResponse{
		Query:      req.Expr.String(),
		Docs:       df.Docs,
		Tokens:     df.Tokens,
		Terms:      df.Terms,
		Prefixes:   df.Prefixes,
		Generation: gen,
	})
}

// handleWorkerSearch serves POST /internal/search — phase two: evaluate
// under (possibly broker-global) statistics and return the local top-k.
func (s *Server) handleWorkerSearch(w http.ResponseWriter, r *http.Request) {
	var in InternalSearchRequest
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if in.Query == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	req := desksearch.Query{
		Text:           in.Query,
		Limit:          in.Limit,
		PathPrefix:     in.PathPrefix,
		Snippets:       in.Snippets,
		MaxPrefixTerms: in.MaxPrefixTerms,
	}
	if in.Rank != "" {
		rank, err := desksearch.ParseRanking(in.Rank)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		req.Ranking = rank
	}
	req, _, err := req.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.DF != nil {
		req.GlobalDF = &desksearch.DocFreqs{
			Docs:     in.DF.Docs,
			Tokens:   in.DF.Tokens,
			Terms:    in.DF.Terms,
			Prefixes: in.DF.Prefixes,
		}
	}

	timeout, err := ParseTimeout(r.URL.Query(), s.timeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	gen := s.cat.Generation()
	s.queries.Add(1)
	resp, err := s.cat.Query(ctx, req)
	if err != nil {
		s.queryErrors.Add(1)
		s.writeWorkerError(w, err)
		return
	}
	s.observePartitions(resp.Partitions)

	out := InternalSearchResponse{
		Total:      resp.Total,
		Generation: gen,
		Hits:       make([]InternalHit, len(resp.Hits)),
		Partitions: make([]PartitionStat, len(resp.Partitions)),
	}
	for i, h := range resp.Hits {
		out.Hits[i] = InternalHit{
			File:      uint32(h.File),
			Path:      h.Path,
			ScoreBits: math.Float64bits(h.Score),
			Terms:     h.Terms,
			Snippet:   h.Snippet,
		}
	}
	// Partition indexes are catalog-local; report global shard numbers so
	// the broker's per-shard view is consistent across workers.
	ids := s.cat.PartitionIDs()
	for i, p := range resp.Partitions {
		id := p.Partition
		if p.Partition < len(ids) {
			id = ids[p.Partition]
		}
		out.Partitions[i] = PartitionStat{
			Partition:  id,
			Matched:    p.Matched,
			DurationUS: float64(p.Duration.Nanoseconds()) / 1e3,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// writeWorkerError maps an evaluation error onto the status a broker can
// act on, through the same queryErrorStatus mapping the public handlers
// use: timeouts and cancellations are retryable against a replica
// (504/503); everything else is deterministic — a replica would fail the
// same way — and maps to 400 with the typed error's code when present.
func (s *Server) writeWorkerError(w http.ResponseWriter, err error) {
	writeQueryError(w, err, s.timeout)
}
