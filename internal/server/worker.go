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
//	POST /internal/search  evaluate a query, optionally under
//	                       broker-supplied global document frequencies,
//	                       and return the local top-k as a partial
//
// Both query routes read their query from /search's URL parameters,
// through the front door's own readQuery, and a broker renders them once
// per query (WorkerParams). The one thing /search has no parameter for,
// the broker's corpus-wide statistics, is POST /internal/search's body:
// the partial's version byte, then the partial's df block
// (AppendSearchBody). No body means the worker scores with its own. A
// worker never clamps the limit it is sent.
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
	"errors"
	"fmt"
	"net/http"
	"time"

	"desksearch"
	"desksearch/internal/index"
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

// handleWorkerDF serves GET /internal/df: the local vector a broker sums
// when its df table cannot supply a query's statistics.
func (s *Server) handleWorkerDF(w http.ResponseWriter, r *http.Request) {
	query, ctx, cancel, ok := s.workerQuery(w, r)
	if !ok {
		return
	}
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
// answer with the local top-k as a binary Partial. The body is read
// first, so an over-cap one is refused before any other work.
func (s *Server) handleWorkerSearch(w http.ResponseWriter, r *http.Request) {
	buf := GetBuffer()
	err := readBody(w, r, buf)
	var df *desksearch.DocFreqs
	if err == nil {
		df, err = readSearchBody(buf.Bytes()) // copies what it keeps
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
	req, ctx, cancel, ok := s.workerQuery(w, r)
	if !ok {
		return
	}
	defer cancel()
	req.GlobalDF = df
	if req, err = req.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

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

// workerQuery reads a query route's query (readQuery) and timeout from r's
// URL and returns the query with a context bounded by that timeout. On a
// mistake in either it answers 400 and reports false.
func (s *Server) workerQuery(w http.ResponseWriter, r *http.Request) (desksearch.Query, context.Context, context.CancelFunc, bool) {
	params := r.URL.Query()
	q, err := readQuery(params)
	var timeout time.Duration
	if err == nil {
		timeout, err = parseTimeout(params, s.door.Timeout)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return q, nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return q, ctx, cancel, true
}

// AppendSearchBody appends the POST /internal/search body that carries
// df, a broker's corpus-wide statistics: the partial's version byte, then
// its df block. A broker from a commit with another layout is refused on
// the first byte.
func AppendSearchBody(dst []byte, df *desksearch.DocFreqs) []byte {
	return appendDF(append(dst, partialVersion), df)
}

// readSearchBody reads what AppendSearchBody writes, through index.Cursor
// as DecodePartial reads a partial; an empty body is no statistics.
func readSearchBody(body []byte) (*desksearch.DocFreqs, error) {
	if len(body) == 0 {
		return nil, nil
	}
	if body[0] != partialVersion {
		return nil, fmt.Errorf("first byte %q; want a df block in the partial layout, version %d", body[0], partialVersion)
	}
	c := index.NewCursor(body[1:])
	df := readDF(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if n := c.Left(); n != 0 {
		return nil, fmt.Errorf("%d trailing bytes", n)
	}
	return &df, nil
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
