package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"desksearch"
	"desksearch/internal/search"
	"desksearch/internal/server"
)

// Handler returns the broker's route table: the same public surface a
// single dsearchd exposes (/search, /suggest, /stats, /healthz,
// /metrics), so clients cannot tell a broker from a node — minus
// /reload, which is a per-worker operation.
func (b *Broker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", b.handleSearch)
	mux.HandleFunc("GET /suggest", b.handleSuggest)
	mux.HandleFunc("GET /stats", b.handleStats)
	mux.HandleFunc("GET /healthz", b.handleHealthz)
	mux.Handle("GET /metrics", b.metrics.reg.Handler())
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeQueryError maps a scatter-gather failure onto the front door:
// deterministic worker rejections keep their status (the client's query
// is at fault), deadline and cancellation map as on a single node, an
// index that would not hold still is a retryable 503, and anything else —
// unreachable groups, malformed worker responses — is the fleet's fault, a
// 502.
func writeQueryError(w http.ResponseWriter, err error, timeout time.Duration) {
	var we *WorkerError
	switch {
	case errors.As(err, &we):
		writeJSON(w, we.Status, errorResponse{Error: we.Message, Code: we.Code})
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query timed out after %s", timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "query canceled")
	case errors.Is(err, errIndexChanging):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadGateway, "%v", err)
	}
}

func (b *Broker) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	q, err := server.ParseSearchQuery(params, b.maxLim)
	if err != nil {
		b.metrics.observeRequest("search", "bad_request", start)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, _, err := q.Normalize()
	if err != nil {
		b.metrics.observeRequest("search", "bad_request", start)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, err := server.ParseTimeout(params, b.timeout)
	if err != nil {
		b.metrics.observeRequest("search", "bad_request", start)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	b.queries.Add(1)
	resp, err := b.query(ctx, req)
	if err != nil {
		b.queryErrors.Add(1)
		b.metrics.observeRequest("search", "error", start)
		writeQueryError(w, err, timeout)
		return
	}
	b.metrics.observeRequest("search", "ok", start)
	resp.Query = req.Expr.String()
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

// errIndexChanging reports a query whose statistics failed verification
// twice in a row: the index changed under it, then changed again under the
// re-issue. Nothing is wrong with the fleet or the query, so the front
// door answers 503 and the client retries.
var errIndexChanging = errors.New("the index changed twice while the query ran; retry")

// query answers one normalized request: scatter it to every group, merge
// the partials into a single-node-identical response.
//
// Each worker returns its local top-(limit+offset) with scores as raw
// Float64bits. The partials merge under the same total order the engine
// uses (score descending, file ID ascending — file IDs are global because
// the file table is shared), which makes the distributed merge reproduce
// the single-node ranking bit for bit; the offset is applied after the
// merge, on the globally ranked list.
//
// BM25 over more than one group also needs every worker to score with the
// corpus-wide document frequencies, not its own. (A single group's
// statistics already are the global ones.) The protocol is verify-then-
// return:
//
//  1. Take the query's vector from the df table; on a miss, ask every
//     group for its local vector (GET /internal/df, answered as a partial
//     with no page) and sum them. The sums are integer element-wise
//     additions — exact and order-independent.
//  2. Scatter the query with that vector attached. Every partial carries
//     its worker's own vector, read under the same view of the index as
//     the evaluation it came from.
//  3. Sum those and compare with what was sent. Equal: every worker scored
//     with exactly the statistics of the state it evaluated, which is what
//     asking first would have produced — return the page. Unequal: the
//     table was stale, or a worker reloaded between 1 and 2; the sums just
//     computed are the true ones, so store them, scatter once more with
//     them, and verify again. A second mismatch is errIndexChanging.
//
// So a table hit costs one round trip, a miss two, a stale entry two, and
// no page is returned unverified.
func (b *Broker) query(ctx context.Context, req desksearch.Query) (*server.SearchResponse, error) {
	k := req.Limit + req.Offset
	in := server.InternalSearchRequest{
		Query:          req.Expr.String(),
		Limit:          k,
		Rank:           req.Ranking.String(),
		PathPrefix:     req.PathPrefix,
		Snippets:       req.Snippets,
		MaxPrefixTerms: req.MaxPrefixTerms,
	}
	verify := req.Ranking == desksearch.RankBM25 && len(b.groups) > 1
	var terms, prefixes []string
	if verify {
		terms, prefixes = req.Expr.DFKeys()
		if in.DF = b.df.lookup(terms, prefixes); in.DF != nil {
			b.dfHits.Add(1)
		} else {
			b.dfMisses.Add(1)
			var err error
			if in.DF, err = b.gatherDF(ctx, in.Query, req.MaxPrefixTerms); err != nil {
				return nil, err
			}
			b.df.store(terms, prefixes, in.DF)
		}
	}

	partials, err := b.scatter(ctx, &in)
	if err != nil {
		return nil, err
	}
	for reissued := false; verify; reissued = true {
		sum, err := sumDF(partials)
		if err != nil {
			return nil, err
		}
		if equalDF(sum, in.DF) {
			break
		}
		b.dfStale.Add(1)
		b.df.store(terms, prefixes, sum)
		if reissued {
			return nil, errIndexChanging
		}
		in.DF = sum
		if partials, err = b.scatter(ctx, &in); err != nil {
			return nil, err
		}
	}

	parts := make([][]search.Hit, len(partials))
	total := 0
	var gen uint64
	var partStats []server.PartitionStat
	for gi, p := range partials {
		total += p.Total
		gen += p.Generation
		partStats = append(partStats, p.Partitions...)
		parts[gi] = p.Hits
	}
	merged := search.MergeRankedPage(parts, k)
	if req.Offset < len(merged) {
		merged = merged[req.Offset:]
	} else {
		merged = nil
	}
	if len(merged) > req.Limit {
		merged = merged[:req.Limit]
	}
	sort.SliceStable(partStats, func(i, j int) bool {
		return partStats[i].Partition < partStats[j].Partition
	})

	out := &server.SearchResponse{
		Generation: gen,
		Total:      total,
		Hits:       make([]server.SearchHit, len(merged)),
		Partitions: partStats,
	}
	for i, h := range merged {
		out.Hits[i] = server.SearchHit{Path: h.Path, Score: h.Score, Terms: h.Terms, Snippet: h.Snippet}
	}
	return out, nil
}

// scatter posts in to every group's /internal/search.
func (b *Broker) scatter(ctx context.Context, in *server.InternalSearchRequest) ([]*server.Partial, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	return b.gatherPartials(ctx, http.MethodPost, "/internal/search", body)
}

// gatherDF asks every group for its local document-frequency vector and
// sums them into the corpus-wide one. The client's prefix-expansion cap
// rides along so the round rejects an over-broad prefix at the same
// threshold the search would.
func (b *Broker) gatherDF(ctx context.Context, canonical string, maxPrefixTerms int) (*server.DFPayload, error) {
	path := "/internal/df?q=" + url.QueryEscape(canonical)
	if maxPrefixTerms > 0 {
		path += "&max_prefix_terms=" + strconv.Itoa(maxPrefixTerms)
	}
	partials, err := b.gatherPartials(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	return sumDF(partials)
}

// gatherPartials sends one request to every group at once and returns
// their partials in group order.
func (b *Broker) gatherPartials(ctx context.Context, method, path string, body []byte) ([]*server.Partial, error) {
	partials := make([]*server.Partial, len(b.groups))
	errs := make([]error, len(b.groups))
	var wg sync.WaitGroup
	for gi, g := range b.groups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			errs[gi] = b.doGroup(ctx, g, method, path, body, func(data []byte) (err error) {
				partials[gi], err = server.DecodePartial(data)
				return err
			})
			if errs[gi] == nil {
				g.generation.Store(partials[gi].Generation)
			}
		}(gi, g)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return partials, nil
}

// sumDF adds the local vectors the groups' partials carry into the
// corpus-wide vector. Docs and Tokens come from the shared manifest: every
// worker of one directory reports the same values, so they are checked
// equal rather than summed, and a mismatch means the groups are serving
// different index states and no merge of their partials is meaningful.
func sumDF(partials []*server.Partial) (*server.DFPayload, error) {
	first := &partials[0].DF
	sum := &desksearch.DocFreqs{
		Docs:     first.Docs,
		Tokens:   first.Tokens,
		Terms:    append([]int(nil), first.Terms...),
		Prefixes: append([]int(nil), first.Prefixes...),
	}
	for _, p := range partials[1:] {
		d := &p.DF
		if d.Docs != first.Docs || d.Tokens != first.Tokens {
			return nil, fmt.Errorf("broker: corpus statistics disagree across groups (%d docs/%d tokens vs %d/%d) — workers are serving different index states",
				first.Docs, first.Tokens, d.Docs, d.Tokens)
		}
		if !sum.Add(d) {
			return nil, fmt.Errorf("broker: document-frequency vectors disagree in shape across groups")
		}
	}
	return (*server.DFPayload)(sum), nil
}

func equalDF(a, b *server.DFPayload) bool {
	return a.Docs == b.Docs && a.Tokens == b.Tokens && slices.Equal(a.Terms, b.Terms) && slices.Equal(a.Prefixes, b.Prefixes)
}

// firstError prefers a deterministic WorkerError — it tells the client
// what to fix — over transport noise, then falls back to the first error
// in group order.
func firstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var we *WorkerError
		if errors.As(err, &we) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

func (b *Broker) handleSuggest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	prefix := params.Get("q")
	if prefix == "" {
		b.metrics.observeRequest("suggest", "bad_request", start)
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	n := 10
	if v := params.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			b.metrics.observeRequest("suggest", "bad_request", start)
			writeError(w, http.StatusBadRequest, "invalid n %q", v)
			return
		}
		n = parsed
	}
	if n > b.maxLim {
		n = b.maxLim
	}
	ctx, cancel := context.WithTimeout(r.Context(), b.timeout)
	defer cancel()
	b.queries.Add(1)

	// Each worker returns its local top-n; summing document-disjoint
	// per-term counts gives exact global frequencies for every term that
	// surfaces. A term ranked below every worker's local cutoff can be
	// missed — the classic distributed top-k approximation, acceptable
	// for autocomplete.
	path := "/suggest?q=" + url.QueryEscape(prefix) + "&n=" + strconv.Itoa(n)
	resps := make([]server.SuggestResponse, len(b.groups))
	errs := make([]error, len(b.groups))
	var wg sync.WaitGroup
	for gi, g := range b.groups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			errs[gi] = b.doGroup(ctx, g, http.MethodGet, path, nil, func(data []byte) error {
				return json.Unmarshal(data, &resps[gi])
			})
		}(gi, g)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		b.queryErrors.Add(1)
		b.metrics.observeRequest("suggest", "error", start)
		writeQueryError(w, err, b.timeout)
		return
	}
	b.metrics.observeRequest("suggest", "ok", start)

	counts := make(map[string]int)
	var gen uint64
	for _, resp := range resps {
		gen += resp.Generation
		for _, sg := range resp.Suggestions {
			counts[sg.Term] += sg.Files
		}
	}
	merged := make([]desksearch.Suggestion, 0, len(counts))
	for term, files := range counts {
		merged = append(merged, desksearch.Suggestion{Term: term, Files: files})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Files != merged[j].Files {
			return merged[i].Files > merged[j].Files
		}
		return merged[i].Term < merged[j].Term
	})
	if len(merged) > n {
		merged = merged[:n]
	}
	writeJSON(w, http.StatusOK, server.SuggestResponse{
		Prefix:      resps[0].Prefix,
		Generation:  gen,
		TookMS:      float64(time.Since(start).Microseconds()) / 1e3,
		Suggestions: merged,
	})
}

// StatsResponse is the JSON shape of the broker's /stats.
type StatsResponse struct {
	UptimeS     float64 `json:"uptime_s"`
	TotalShards int     `json:"total_shards"`
	Files       int     `json:"files"`
	Positional  bool    `json:"positional"`

	Queries     uint64 `json:"queries"`
	QueryErrors uint64 `json:"query_errors"`
	// Hedges counts speculative duplicate requests issued; HedgeWins how
	// many of them answered before the primary; Failovers how many
	// replica attempts were restarted on another replica after a failure.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Failovers uint64 `json:"failovers"`
	// DFHits counts multi-group BM25 queries scattered at once with
	// statistics from the broker's df table, DFMisses those that asked the
	// workers first, and DFStale the scatters re-issued because the
	// workers' own vectors contradicted the statistics sent.
	DFHits   uint64 `json:"df_hits"`
	DFMisses uint64 `json:"df_misses"`
	DFStale  uint64 `json:"df_stale"`

	Groups []GroupStats `json:"groups"`
}

// GroupStats is one replica group's block of the broker's /stats.
type GroupStats struct {
	Shards     []int           `json:"shards"`
	Generation uint64          `json:"generation"`
	Replicas   []ReplicaStatus `json:"replicas"`
	// HedgeDelayUS is the delay the next request against this group would
	// hedge after, under the current policy and observations.
	HedgeDelayUS float64 `json:"hedge_delay_us"`
	// Latency summarizes recent successful request latencies against the
	// group; absent before the first success.
	Latency *LatencyStats `json:"latency,omitempty"`
}

// ReplicaStatus is one worker's health as the broker sees it.
type ReplicaStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// LatencyStats summarizes a group's recent request latencies.
type LatencyStats struct {
	Requests uint64  `json:"requests"`
	MinUS    float64 `json:"min_us"`
	MedianUS float64 `json:"median_us"`
	P95US    float64 `json:"p95_us"`
	MaxUS    float64 `json:"max_us"`
}

func (b *Broker) handleStats(w http.ResponseWriter, r *http.Request) {
	out := StatsResponse{
		UptimeS:     time.Since(b.start).Seconds(),
		TotalShards: b.totalShards,
		Files:       b.files,
		Positional:  b.positional,
		Queries:     b.queries.Load(),
		QueryErrors: b.queryErrors.Load(),
		Hedges:      b.hedges.Load(),
		HedgeWins:   b.hedgeWins.Load(),
		Failovers:   b.failovers.Load(),
		DFHits:      b.dfHits.Load(),
		DFMisses:    b.dfMisses.Load(),
		DFStale:     b.dfStale.Load(),
		Groups:      make([]GroupStats, len(b.groups)),
	}
	for gi, g := range b.groups {
		s, ok := g.window.Snapshot()
		hedgeAfter, _ := b.policy(s, ok)
		gs := GroupStats{
			Shards:       g.shards,
			Generation:   g.generation.Load(),
			HedgeDelayUS: float64(hedgeAfter.Nanoseconds()) / 1e3,
			Replicas:     make([]ReplicaStatus, len(g.replicas)),
		}
		for ri, rep := range g.replicas {
			gs.Replicas[ri] = ReplicaStatus{URL: rep.url, Healthy: rep.healthy.Load()}
		}
		if ok {
			gs.Latency = &LatencyStats{
				Requests: s.Count,
				MinUS:    float64(s.Min.Nanoseconds()) / 1e3,
				MedianUS: float64(s.Median.Nanoseconds()) / 1e3,
				P95US:    float64(s.P95.Nanoseconds()) / 1e3,
				MaxUS:    float64(s.Max.Nanoseconds()) / 1e3,
			}
		}
		out.Groups[gi] = gs
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports 200 while every group has at least one healthy
// replica — the broker can still answer every query then — and 503 the
// moment any shard subset is entirely dark.
func (b *Broker) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var dark []int
	for gi, g := range b.groups {
		ok := false
		for _, rep := range g.replicas {
			if rep.healthy.Load() {
				ok = true
				break
			}
		}
		if !ok {
			dark = append(dark, gi)
		}
	}
	if len(dark) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":      "degraded",
			"dark_groups": dark,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}
