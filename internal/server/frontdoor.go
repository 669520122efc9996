package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"desksearch"
	"desksearch/internal/metrics"
)

// Backend is what differs between a node and a fleet behind the front
// door: how a normalized query and a suggest are answered, and what a
// failure of either means on the wire.
type Backend struct {
	// Search answers one normalized query (Expr set, limit within the
	// front door's cap) with everything of the response but Query and
	// TookMS, which the front door fills.
	Search func(ctx context.Context, q desksearch.Query) (*SearchResponse, error)
	// Suggest answers one autocomplete request (n already defaulted and
	// capped) with everything of the response but TookMS.
	Suggest func(ctx context.Context, prefix string, n int) (*SuggestResponse, error)
	// ErrorStatus maps a Search or Suggest failure that is neither a
	// deadline nor a cancellation — the front door maps those itself — to
	// its status, message and optional stable code.
	ErrorStatus func(err error) (status int, msg, code string)
}

// FrontDoor is the public query surface of dsearchd — GET /search and GET
// /suggest — in the one copy a single node (Server) and a scatter-gather
// broker both serve: URL parsing and validation, the timeout ceiling and
// limit cap, error rendering, and the request counters and latency
// histograms. Clients cannot tell a broker from a node because there is
// nothing to tell apart; only the Backend differs.
type FrontDoor struct {
	be Backend
	// Timeout is the resolved ceiling on one request's evaluation; a
	// request's own timeout parameter may shorten but never exceed it.
	// Read-only after NewFrontDoor.
	Timeout  time.Duration
	maxLimit int

	// Queries counts requests that reached the backend, QueryErrors those
	// it failed; /stats and /metrics (ds_queries_total,
	// ds_query_errors_total) report them.
	Queries, QueryErrors atomic.Uint64

	requests *metrics.CounterVec // by endpoint and outcome
	latency  map[string]*metrics.Histogram
}

// NewFrontDoor returns a front door over be and registers its instruments
// on reg. timeout bounds each request (zero falls back to 10 s); maxLimit
// caps the limit and n parameters and replaces an unbounded limit=0, so
// one request cannot materialize the entire catalog (zero falls back to
// 1000).
func NewFrontDoor(be Backend, timeout time.Duration, maxLimit int, reg *metrics.Registry) *FrontDoor {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	if maxLimit == 0 {
		maxLimit = 1000
	}
	d := &FrontDoor{
		be:       be,
		Timeout:  timeout,
		maxLimit: maxLimit,
		requests: reg.NewCounterVec("ds_requests_total", "HTTP requests by endpoint and outcome.", "endpoint", "outcome"),
		latency:  make(map[string]*metrics.Histogram),
	}
	for _, ep := range []string{"search", "suggest"} {
		d.latency[ep] = reg.NewHistogram("ds_"+ep+"_duration_seconds", "Handling time of /"+ep+" requests.", nil)
	}
	reg.NewCounterFunc("ds_queries_total", "Queries accepted across /search and /suggest.",
		func() float64 { return float64(d.Queries.Load()) })
	reg.NewCounterFunc("ds_query_errors_total", "Accepted queries that failed.",
		func() float64 { return float64(d.QueryErrors.Load()) })
	return d
}

// Register adds the front door's routes to mux.
func (d *FrontDoor) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /search", d.handleSearch)
	mux.HandleFunc("GET /suggest", d.handleSuggest)
}

// observe records one finished request: the outcome-labeled counter and
// the endpoint's latency histogram.
func (d *FrontDoor) observe(endpoint, outcome string, start time.Time) {
	d.requests.With(endpoint, outcome).Inc()
	d.latency[endpoint].Observe(time.Since(start).Seconds())
}

// badRequest finishes a request the client got wrong.
func (d *FrontDoor) badRequest(w http.ResponseWriter, endpoint string, start time.Time, err error) {
	d.observe(endpoint, "bad_request", start)
	writeError(w, http.StatusBadRequest, "%v", err)
}

// failed finishes a request the backend could not answer.
func (d *FrontDoor) failed(w http.ResponseWriter, endpoint string, start time.Time, err error, timeout time.Duration) {
	d.QueryErrors.Add(1)
	d.observe(endpoint, "error", start)
	writeQueryError(w, err, timeout, d.be.ErrorStatus)
}

func (d *FrontDoor) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	q, err := parseSearchQuery(params, d.maxLimit)
	if err == nil {
		q, err = q.Normalize()
	}
	var timeout time.Duration
	if err == nil {
		timeout, err = parseTimeout(params, d.Timeout)
	}
	if err != nil {
		d.badRequest(w, "search", start, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	d.Queries.Add(1)
	resp, err := d.be.Search(ctx, q)
	if err != nil {
		d.failed(w, "search", start, err, timeout)
		return
	}
	d.observe("search", "ok", start)
	resp.Query = q.Expr.String()
	if resp.Hits == nil {
		resp.Hits = []desksearch.Hit{}
	}
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1e3
	WriteJSON(w, http.StatusOK, resp)
}

func (d *FrontDoor) handleSuggest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	prefix := params.Get("q")
	if prefix == "" {
		d.badRequest(w, "suggest", start, errors.New("missing q parameter"))
		return
	}
	n := 10
	if v := params.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			d.badRequest(w, "suggest", start, fmt.Errorf("invalid n %q", v))
			return
		}
		n = parsed
	}
	if n > d.maxLimit {
		n = d.maxLimit
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.Timeout)
	defer cancel()

	d.Queries.Add(1)
	resp, err := d.be.Suggest(ctx, prefix, n)
	if err != nil {
		d.failed(w, "suggest", start, err, d.Timeout)
		return
	}
	d.observe("suggest", "ok", start)
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1e3
	WriteJSON(w, http.StatusOK, resp)
}

// parseSearchQuery reads /search's parameters (readQuery) under the front
// door's limit policy: 10 when limit is absent, and maxLimit in place of
// an unbounded 0 or anything larger.
func parseSearchQuery(params url.Values, maxLimit int) (desksearch.Query, error) {
	req, err := readQuery(params)
	if params.Get("limit") == "" {
		req.Limit = 10
	}
	if req.Limit == 0 || req.Limit > maxLimit {
		req.Limit = maxLimit
	}
	return req, err
}

// readQuery maps a query's URL parameters (q, limit, offset, rank,
// snippets, prefix, max_prefix_terms) onto a desksearch.Query, as they
// are: /search, GET /internal/df and POST /internal/search all read their
// query through it, and WorkerParams writes what it reads. An absent
// limit is 0. Every error it returns is the client's mistake and maps to
// 400.
func readQuery(params url.Values) (desksearch.Query, error) {
	var req desksearch.Query
	req.Text = params.Get("q")
	if req.Text == "" {
		return req, fmt.Errorf("missing q parameter")
	}
	var err error
	if req.Limit, err = intParam(params, "limit"); err != nil {
		return req, err
	}
	if req.Offset, err = intParam(params, "offset"); err != nil {
		return req, err
	}
	if v := params.Get("rank"); v != "" {
		// ParseRanking resolves the wire names (count, tf, bm25); anything
		// else is the client's mistake, so it maps to 400, never 500.
		if req.Ranking, err = desksearch.ParseRanking(v); err != nil {
			return req, err
		}
	}
	if v := params.Get("snippets"); v != "" {
		if req.Snippets, err = strconv.ParseBool(v); err != nil {
			return req, fmt.Errorf("invalid snippets %q (want a boolean)", v)
		}
	}
	req.PathPrefix = params.Get("prefix")
	req.MaxPrefixTerms, err = intParam(params, "max_prefix_terms")
	return req, err
}

// intParam reads a non-negative integer parameter; absent is 0.
func intParam(params url.Values, name string) (int, error) {
	v := params.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid %s %q", name, v)
	}
	return n, nil
}

// WorkerParams renders a normalized query as the URL parameters readQuery
// reads back: the canonical text, limit+offset as the limit (a broker
// merges every worker's top limit+offset and pages the merge itself), no
// offset, and every other control that is not its zero value. A broker
// renders each query once and sends the string to /internal/df and
// /internal/search alike.
func WorkerParams(q desksearch.Query) string {
	p := "q=" + url.QueryEscape(q.Expr.String()) + "&limit=" + strconv.Itoa(q.Limit+q.Offset)
	if q.Ranking != desksearch.RankCount {
		p += "&rank=" + q.Ranking.String()
	}
	if q.Snippets {
		p += "&snippets=true"
	}
	if q.PathPrefix != "" {
		p += "&prefix=" + url.QueryEscape(q.PathPrefix)
	}
	if q.MaxPrefixTerms > 0 {
		p += "&max_prefix_terms=" + strconv.Itoa(q.MaxPrefixTerms)
	}
	return p
}

// parseTimeout resolves a request's timeout parameter against a ceiling:
// the parameter may shorten the ceiling but never exceed it, and an
// unparseable or non-positive value is a client error.
func parseTimeout(params url.Values, ceiling time.Duration) (time.Duration, error) {
	t := params.Get("timeout")
	if t == "" {
		return ceiling, nil
	}
	d, err := time.ParseDuration(t)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid timeout %q", t)
	}
	return min(d, ceiling), nil
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the stable machine-readable code of a typed query error
	// (desksearch.QueryErrorCode), empty for every other failure. Clients
	// branch on it instead of parsing Error's prose.
	Code string `json:"code,omitempty"`
}

// WriteJSON writes v as the JSON body of a response with the given status
// — the one encoder behind every JSON body a node or a broker sends.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeQueryError is the one place a failed query becomes a wire status
// and body. Timeouts and cancellations are retryable (504/503) and get
// their conventional prose; everything else is classify's call — on a
// node, nodeErrorStatus; on a broker, its pass-through of worker
// rejections.
func writeQueryError(w http.ResponseWriter, err error, timeout time.Duration, classify func(error) (int, string, string)) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query timed out after %s", timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "query canceled")
	default:
		status, msg, code := classify(err)
		WriteJSON(w, status, errorResponse{Error: msg, Code: code})
	}
}

// nodeErrorStatus is a node's Backend.ErrorStatus, shared with its worker
// endpoints, and the one table from query-error code to status. An
// evaluation error that is not a timeout is deterministic — a replica
// would fail the same way — and maps to 400, with typed query errors
// contributing their stable code; the exceptions are segment_corrupt,
// which is this node's files failing verification, and internal, a panic
// this node recovered from: a 500, so a broker fails over to a replica
// instead of passing a rejection through.
func nodeErrorStatus(err error) (status int, msg, code string) {
	status = http.StatusBadRequest
	var qe *desksearch.QueryError
	if errors.As(err, &qe) {
		code = string(qe.Code)
		if qe.Code == desksearch.CodeSegmentCorrupt || qe.Code == desksearch.CodeInternal {
			status = http.StatusInternalServerError
		}
	}
	return status, err.Error(), code
}
