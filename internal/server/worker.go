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
// one shape a worker answers a broker's query traffic in. Scores are the
// 8 raw bytes of math.Float64bits, so the invariant the broker maintains —
// distributed results bit-identical to a single-node evaluation — hinges on
// no library's float formatting, and decoding one costs the broker no
// reflection. Layout, in order; "uvarint" is encoding/binary's, "bytes" a
// uvarint length followed by that many raw bytes, "f64" the IEEE-754 bits,
// little-endian:
//
//	field            encoding    meaning
//	version          1 byte      partialVersion (1); anything else is refused
//	total            uvarint     this worker's match count
//	generation       uvarint     the worker's catalog generation
//	df.docs          uvarint     live documents in the corpus (manifest-wide)
//	df.tokens        uvarint     their summed token length
//	df.terms         uvarint n   then n x uvarint: the worker's LOCAL document
//	                             frequency per positive query term
//	df.prefixes      uvarint n   then n x uvarint: the same per scoring prefix
//	partitions       uvarint n   then n x { shard uvarint, matched uvarint,
//	                             duration_us f64 }
//	hits             uvarint n   then n x hit, in merged rank order
//	  hit.file       uvarint     directory-wide document ID (merge tie-break)
//	  hit.score      f64
//	  hit.path       bytes
//	  hit.terms      uvarint n   then n x bytes
//	  hit.snippet    1 byte      0 = none; 1 = { text bytes, highlights
//	                             uvarint n then n x { start, end uvarint } }
//
// The df block is all zeros unless the request ranked by bm25 (or is a
// /internal/df call). It is read under the same view of the index as the
// evaluation, and it is the worker's own vector even when the request
// carried the broker's: the broker sums the blocks of every group and
// returns a page only when the sum equals what the page was scored with
// (verify-then-return, see broker.query). A partial must fill its body
// exactly; the decoder checks every count against the bytes left, so a
// truncated or forged one is an error, not an allocation.
//
// Worker search responses bypass the public result cache. The broker has
// its own view of result identity (generation vector across workers), and
// a worker's partial under broker-supplied global statistics is not the
// same value the public /search would cache for that query text.
package server

import (
	"context"
	"encoding/json"
	"net/http"

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
	cs, gen := s.catalogStats()
	WriteJSON(w, http.StatusOK, WorkerMeta{
		Shards:      s.cat.PartitionIDs(),
		TotalShards: s.cat.TotalShards(),
		Files:       cs.Files,
		Generation:  gen,
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
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &in) // copies what it keeps
	}
	PutBuffer(buf)
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
		Hits:       resp.Hits,
		Partitions: wirePartitions(resp.Partitions, ids),
	}
	if resp.DF != nil {
		out.DF = *resp.DF
	}
	writePartial(w, &out)
}
