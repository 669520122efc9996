package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"desksearch"
	"desksearch/internal/postings"
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
// is at fault), deadline and cancellation map as on a single node, and
// anything else — unreachable groups, malformed worker responses — is
// the fleet's fault, a 502.
func writeQueryError(w http.ResponseWriter, err error, timeout time.Duration) {
	var we *WorkerError
	switch {
	case errors.As(err, &we):
		writeJSON(w, we.Status, errorResponse{Error: we.Message, Code: we.Code})
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query timed out after %s", timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "query canceled")
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

// query runs the two-phase scatter-gather protocol for one normalized
// request and merges the partials into a single-node-identical response.
//
// Phase one (BM25 over more than one group only): gather every group's
// local document-frequency vector and sum them. The sums are integer
// element-wise additions — exact and order-independent — and Docs/Tokens
// come from the shared manifest, so they are verified equal rather than
// summed. A single group skips the phase: its local statistics already
// are the global ones.
//
// Phase two: scatter the query with the global statistics attached; each
// worker returns its local top-(limit+offset) with scores as raw
// Float64bits. The partials merge under the same total order the engine
// uses (score descending, file ID ascending — file IDs are global because
// the file table is shared), which makes the distributed merge reproduce
// the single-node ranking bit for bit; the offset is applied after the
// merge, on the globally ranked list.
func (b *Broker) query(ctx context.Context, req desksearch.Query) (*server.SearchResponse, error) {
	canonical := req.Expr.String()
	k := req.Limit + req.Offset

	var df *server.DFPayload
	if req.Ranking == desksearch.RankBM25 && len(b.groups) > 1 {
		var err error
		if df, err = b.gatherDF(ctx, canonical, req.MaxPrefixTerms); err != nil {
			return nil, err
		}
	}

	body, err := json.Marshal(server.InternalSearchRequest{
		Query:          canonical,
		Limit:          k,
		Rank:           req.Ranking.String(),
		PathPrefix:     req.PathPrefix,
		Snippets:       req.Snippets,
		MaxPrefixTerms: req.MaxPrefixTerms,
		DF:             df,
	})
	if err != nil {
		return nil, err
	}

	partials := make([]*server.InternalSearchResponse, len(b.groups))
	errs := make([]error, len(b.groups))
	var wg sync.WaitGroup
	for gi, g := range b.groups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			var out server.InternalSearchResponse
			if err := b.doGroup(ctx, g, http.MethodPost, "/internal/search", body, &out); err != nil {
				errs[gi] = err
				return
			}
			g.generation.Store(out.Generation)
			partials[gi] = &out
		}(gi, g)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	parts := make([][]search.Hit, len(partials))
	total := 0
	var gen uint64
	var partStats []server.PartitionStat
	for gi, p := range partials {
		total += p.Total
		gen += p.Generation
		partStats = append(partStats, p.Partitions...)
		hits := make([]search.Hit, len(p.Hits))
		for i, h := range p.Hits {
			hits[i] = search.Hit{
				File:    postings.FileID(h.File),
				Path:    h.Path,
				Score:   math.Float64frombits(h.ScoreBits),
				Terms:   h.Terms,
				Snippet: h.Snippet,
			}
		}
		parts[gi] = hits
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

// gatherDF fans phase one out to every group and sums the local
// document-frequency vectors into the corpus-global payload phase two
// attaches. The client's prefix-expansion cap rides along so phase one
// rejects an over-broad prefix at the same threshold phase two would.
func (b *Broker) gatherDF(ctx context.Context, canonical string, maxPrefixTerms int) (*server.DFPayload, error) {
	path := "/internal/df?q=" + url.QueryEscape(canonical)
	if maxPrefixTerms > 0 {
		path += "&max_prefix_terms=" + strconv.Itoa(maxPrefixTerms)
	}
	dfs := make([]*server.DFResponse, len(b.groups))
	errs := make([]error, len(b.groups))
	var wg sync.WaitGroup
	for gi, g := range b.groups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			var out server.DFResponse
			if err := b.doGroup(ctx, g, http.MethodGet, path, nil, &out); err != nil {
				errs[gi] = err
				return
			}
			dfs[gi] = &out
		}(gi, g)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	first := dfs[0]
	sum := &desksearch.DocFreqs{
		Docs:     first.Docs,
		Tokens:   first.Tokens,
		Terms:    append([]int(nil), first.Terms...),
		Prefixes: append([]int(nil), first.Prefixes...),
	}
	for _, d := range dfs[1:] {
		if d.Query != first.Query {
			return nil, fmt.Errorf("broker: groups normalized the query differently (%q vs %q)", first.Query, d.Query)
		}
		// Docs and Tokens come from the shared manifest: every worker of
		// one directory reports the same values, so a mismatch means the
		// groups are serving different index states and no merge of their
		// partials is meaningful.
		if d.Docs != first.Docs || d.Tokens != first.Tokens {
			return nil, fmt.Errorf("broker: corpus statistics disagree across groups (%d docs/%d tokens vs %d/%d) — workers are serving different index states",
				first.Docs, first.Tokens, d.Docs, d.Tokens)
		}
		if !sum.Add(&desksearch.DocFreqs{Docs: d.Docs, Tokens: d.Tokens, Terms: d.Terms, Prefixes: d.Prefixes}) {
			return nil, fmt.Errorf("broker: document-frequency vectors disagree in shape across groups")
		}
	}
	return &server.DFPayload{Docs: sum.Docs, Tokens: sum.Tokens, Terms: sum.Terms, Prefixes: sum.Prefixes}, nil
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
	resps := make([]*server.SuggestResponse, len(b.groups))
	errs := make([]error, len(b.groups))
	var wg sync.WaitGroup
	for gi, g := range b.groups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			var out server.SuggestResponse
			if err := b.doGroup(ctx, g, http.MethodGet, path, nil, &out); err != nil {
				errs[gi] = err
				return
			}
			resps[gi] = &out
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
		Groups:      make([]GroupStats, len(b.groups)),
	}
	for gi, g := range b.groups {
		gs := GroupStats{
			Shards:       g.shards,
			Generation:   g.generation.Load(),
			HedgeDelayUS: float64(b.hedgeDelay(g).Nanoseconds()) / 1e3,
			Replicas:     make([]ReplicaStatus, len(g.replicas)),
		}
		for ri, rep := range g.replicas {
			gs.Replicas[ri] = ReplicaStatus{URL: rep.url, Healthy: rep.healthy.Load()}
		}
		if s, ok := g.window.Snapshot(); ok {
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
