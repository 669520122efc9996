// Worker endpoints: the internal surface a scatter-gather broker fans
// queries out to, enabled by Config.Worker (dsearchd -worker). Three
// routes:
//
//	GET  /internal/meta    which global shards this worker serves, out of
//	                       how many — the broker's topology check (JSON)
//	GET  /internal/df      the worker's local document-frequency vector
//	                       for a query, as a partial with no page — what a
//	                       broker asks when its df table does not know the
//	                       query's terms
//	POST /internal/search  evaluate a query (JSON request), optionally
//	                       under broker-supplied global document
//	                       frequencies, and return the local top-k as a
//	                       partial
//
// A partial (Partial, AppendPartial, DecodePartial in partial.go) is the
// one shape a worker answers a broker's query traffic in: binary, with
// scores as the 8 raw bytes of math.Float64bits, so the invariant the
// broker maintains — distributed results bit-identical to a single-node
// evaluation — hinges on no library's float formatting. Its layout is
// tabulated once, in docs/ARCHITECTURE.md ("The partial"). The df block
// is filled whatever the ranking, and it is the worker's own vector even
// when the request carried the broker's: the broker sums the blocks of
// every group, returns a BM25 page only when the sum equals what the page
// was scored with (verify-then-return, see broker.query), and keeps the
// sums of other rankings for the BM25 queries that follow.
//
// Worker search responses bypass the public result cache. The broker has
// its own view of result identity (generation vector across workers), and
// a worker's partial under broker-supplied global statistics is not the
// same value the public /search would cache for that query text.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"desksearch"
)

// MaxBodyBytes bounds a body on the broker-worker hop, request and
// response alike, so neither side's heap is the other's to balloon.
const MaxBodyBytes = 64 << 20

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
	DF *desksearch.DocFreqs `json:"df,omitempty"`
}

// handleWorkerMeta serves GET /internal/meta.
func (s *Server) handleWorkerMeta(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, WorkerMeta{
		Shards:      s.cat.PartitionIDs(),
		TotalShards: s.cat.TotalShards(),
		Files:       s.cat.Files(),
		Generation:  s.cat.Generation(),
		Positional:  s.cat.Positional(),
	})
}

// handleWorkerDF serves GET /internal/df?q=...: the local vector a broker
// sums when its df table cannot supply a query's statistics.
func (s *Server) handleWorkerDF(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	query := desksearch.Query{Text: params.Get("q")}
	if query.Text == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	var err error
	if query.MaxPrefixTerms, err = parseMaxPrefixTerms(params); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, err := parseTimeout(params, s.door.Timeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	gen := s.cat.Generation()
	df, err := s.cat.DocFreqs(ctx, query) // parses and validates; both are 400s
	if err != nil {
		writeQueryError(w, err, s.door.Timeout, nodeErrorStatus)
		return
	}
	writePartial(w, &Partial{Generation: gen, DF: *df})
}

// writePartial answers 200 with p's wire form.
func writePartial(w http.ResponseWriter, p *Partial) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	// Writing the appended bytes back keeps any growth with the pooled buffer.
	buf.Write(AppendPartial(buf.AvailableBuffer(), p))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf.Bytes()) // a failed write means the broker has gone; nothing to do
}

// handleWorkerSearch serves POST /internal/search: evaluate under the
// broker's statistics (or, with none attached, the worker's own) and
// answer with the local top-k as a binary Partial.
func (s *Server) handleWorkerSearch(w http.ResponseWriter, r *http.Request) {
	var in InternalSearchRequest
	buf := GetBuffer()
	err := readBody(w, r, buf)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &in) // copies what it keeps
	}
	PutBuffer(buf)
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
		return
	}
	if err != nil {
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
		GlobalDF:       in.DF,
	}
	if in.Rank != "" {
		if req.Ranking, err = desksearch.ParseRanking(in.Rank); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req, err = req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, err := parseTimeout(r.URL.Query(), s.door.Timeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	gen := s.cat.Generation()
	s.door.Queries.Add(1)
	resp, err := s.cat.Query(ctx, req)
	if err != nil {
		s.door.QueryErrors.Add(1)
		writeQueryError(w, err, s.door.Timeout, nodeErrorStatus)
		return
	}
	// Partition indexes are catalog-local; the windows and the partial both
	// go by global shard number, so the broker's per-shard view is
	// consistent across workers.
	ids := s.cat.PartitionIDs()
	s.observePartitions(resp.Partitions, ids)
	out := Partial{
		Total:      resp.Total,
		Generation: gen,
		DF:         *resp.DF,
		Hits:       resp.Hits,
		Partitions: wirePartitions(resp.Partitions, ids),
	}
	writePartial(w, &out)
}

// readBody reads r's body into buf, up to MaxBodyBytes: a body declared
// longer is refused unread, and one sent without a length is cut off at
// the byte past the cap.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) error {
	if r.ContentLength > MaxBodyBytes {
		return &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return err
}
