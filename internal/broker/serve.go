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
	"desksearch/internal/index"
	"desksearch/internal/search"
	"desksearch/internal/server"
)

// Handler returns the broker's route table: the same public surface a
// single dsearchd exposes, minus /reload, which is a per-worker operation.
// /search and /suggest are the node's own front door (server.FrontDoor)
// over the broker's scatter-gather, so clients cannot tell a broker from a
// node; /stats, /healthz and /metrics report the fleet.
func (b *Broker) Handler() http.Handler {
	mux := http.NewServeMux()
	b.door.Register(mux)
	mux.HandleFunc("GET /stats", b.handleStats)
	mux.HandleFunc("GET /healthz", b.handleHealthz)
	mux.Handle("GET /metrics", b.reg.Handler())
	return mux
}

// errorStatus is the broker's server.Backend.ErrorStatus: deterministic
// worker rejections keep their status, message and code (the client's
// query is at fault), an index that would not hold still is a retryable
// 503, and anything else — unreachable groups, malformed worker responses
// — is the fleet's fault, a 502.
func errorStatus(err error) (status int, msg, code string) {
	var we *WorkerError
	switch {
	case errors.As(err, &we):
		return we.Status, we.Message, we.Code
	case errors.Is(err, errIndexChanging):
		return http.StatusServiceUnavailable, err.Error(), ""
	default:
		return http.StatusBadGateway, err.Error(), ""
	}
}

// errIndexChanging reports a query whose statistics failed verification
// twice in a row: the index changed under it, then changed again under the
// re-issue. Nothing is wrong with the fleet or the query, so the front
// door answers 503 and the client retries.
var errIndexChanging = errors.New("the index changed twice while the query ran; retry")

// query is the broker's server.Backend.Search: scatter one normalized
// request to every group, merge the partials into a single-node-identical
// response.
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
//
// Every partial carries its worker's vector whatever the ranking, so the
// table learns from every query over more than one group: after an AND,
// phrase or tf scatter the broker stores the sum, and a BM25 query over
// the same terms that follows is a hit. Such a sum is stored only when it
// comes out clean; one that does not fails nothing, since no page was
// scored with it.
func (b *Broker) query(ctx context.Context, req desksearch.Query) (*server.SearchResponse, error) {
	k := req.Limit + req.Offset
	params := server.WorkerParams(req)
	learn := len(b.groups) > 1
	verify := learn && req.Ranking == search.RankBM25
	var terms, prefixes []string
	if learn {
		terms, prefixes = req.Expr.DFKeys()
	}
	var df *search.DocFreqs
	if verify {
		if df = b.df.lookup(terms, prefixes); df != nil {
			b.dfHits.Add(1)
		} else {
			b.dfMisses.Add(1)
			var err error
			if df, err = b.gatherDF(ctx, params); err != nil {
				return nil, err
			}
			b.df.store(terms, prefixes, df)
		}
	}

	partials, err := b.scatter(ctx, params, df)
	if err != nil {
		return nil, err
	}
	if learn && !verify {
		if sum, err := sumDF(partials); err == nil {
			b.df.store(terms, prefixes, sum)
		}
	}
	for reissued := false; verify; reissued = true {
		sum, err := sumDF(partials)
		if err != nil {
			return nil, err
		}
		if equalDF(sum, df) {
			break
		}
		b.dfStale.Add(1)
		b.df.store(terms, prefixes, sum)
		if reissued {
			return nil, errIndexChanging
		}
		df = sum
		if partials, err = b.scatter(ctx, params, df); err != nil {
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

	return &server.SearchResponse{Generation: gen, Total: total, Hits: merged, Partitions: partStats}, nil
}

// scatter posts the query's parameters, rendered once by WorkerParams, to
// every group's /internal/search, with df as the body when it is set; a
// re-scatter changes only the body.
func (b *Broker) scatter(ctx context.Context, params string, df *search.DocFreqs) ([]*server.Partial, error) {
	var body []byte
	if df != nil {
		body = server.AppendSearchBody(nil, df)
	}
	return b.gatherPartials(ctx, http.MethodPost, "/internal/search?"+params, body)
}

// gatherDF asks every group for its local document-frequency vector and
// sums them into the corpus-wide one. The query's parameters are the
// scatter's, so the round rejects an over-broad prefix at the same
// threshold the search would.
func (b *Broker) gatherDF(ctx context.Context, params string) (*search.DocFreqs, error) {
	partials, err := b.gatherPartials(ctx, http.MethodGet, "/internal/df?"+params, nil)
	if err != nil {
		return nil, err
	}
	return sumDF(partials)
}

// gatherPartials sends one request to every group at once and returns
// their partials in group order.
func (b *Broker) gatherPartials(ctx context.Context, method, path string, body []byte) ([]*server.Partial, error) {
	partials := make([]*server.Partial, len(b.groups))
	errs := b.eachGroup(func(gi int, g *group) error {
		err := b.doGroup(ctx, g, method, path, body, func(data []byte) (err error) {
			partials[gi], err = server.DecodePartial(data)
			return err
		})
		if err == nil {
			g.generation.Store(partials[gi].Generation)
		}
		return err
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return partials, nil
}

// eachGroup runs fn for every group at once and returns their errors in
// group order. The last group runs on the calling goroutine, which would
// otherwise only wait: a fleet of one group starts no goroutine at all.
func (b *Broker) eachGroup(fn func(gi int, g *group) error) []error {
	errs := make([]error, len(b.groups))
	last := len(b.groups) - 1
	var wg sync.WaitGroup
	for gi, g := range b.groups[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[gi] = fn(gi, g)
		}()
	}
	errs[last] = fn(last, b.groups[last])
	wg.Wait()
	return errs
}

// sumDF adds the local vectors the groups' partials carry into the
// corpus-wide vector. Docs and Tokens come from the shared manifest: every
// worker of one directory reports the same values, so they are checked
// equal rather than summed, and a mismatch means the groups are serving
// different index states and no merge of their partials is meaningful.
func sumDF(partials []*server.Partial) (*search.DocFreqs, error) {
	first := &partials[0].DF
	sum := &search.DocFreqs{
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
	return sum, nil
}

func equalDF(a, b *search.DocFreqs) bool {
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

// suggest is the broker's server.Backend.Suggest. Each worker returns its
// local top n, and the broker sums the counts it receives per term and
// keeps the top n of the sums. That is an approximation, and not only at
// the cutoff: a worker that cuts a term contributes nothing for it, so a
// term can be missing or carry too small a count. Say worker A's top 2
// are rea (3 files) and reb (3), and worker B holds rea (1), rec (2) and
// red (2). B's top 2 cut rea, so the broker answers rea with 3 files
// where a node answers 4. Exact counts would cost the fleet another round.
func (b *Broker) suggest(ctx context.Context, prefix string, n int) (*server.SuggestResponse, error) {
	path := "/suggest?q=" + url.QueryEscape(prefix) + "&n=" + strconv.Itoa(n)
	resps := make([]server.SuggestResponse, len(b.groups))
	errs := b.eachGroup(func(gi int, g *group) error {
		return b.doGroup(ctx, g, http.MethodGet, path, nil, func(data []byte) error {
			return json.Unmarshal(data, &resps[gi])
		})
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

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
	slices.SortFunc(merged, index.CompareTermCounts)
	if len(merged) > n {
		merged = merged[:n]
	}
	return &server.SuggestResponse{Prefix: resps[0].Prefix, Generation: gen, Suggestions: merged}, nil
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
		Queries:     b.door.Queries.Load(),
		QueryErrors: b.door.QueryErrors.Load(),
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
	server.WriteJSON(w, http.StatusOK, out)
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
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":      "degraded",
			"dark_groups": dark,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}
