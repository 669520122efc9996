// Package server implements dsearchd's HTTP layer: a resident query broker
// over a desksearch.Catalog, in the spirit of the parallel web search
// engines of the related work — the catalog is loaded once and stays
// memory-resident across requests, and queries fan out over its
// partitions.
//
// Endpoints:
//
//	GET  /search?q=...   evaluate a query (limit, offset, rank, prefix,
//	                     snippets, timeout parameters), JSON response; q
//	                     uses the full grammar, quoted phrases and prefix
//	                     operators included (q=%22annual%20report%22,
//	                     q=repor* — phrase queries and snippets need a
//	                     catalog built with positions and otherwise fail
//	                     with 400). rank accepts the wire names count,
//	                     tf, and bm25; anything else fails with 400.
//	GET  /suggest?q=...  autocomplete: indexed terms with the given
//	                     prefix, ranked by document frequency (n caps
//	                     the count, default 10)
//	GET  /stats          catalog and server counters
//	GET  /healthz        liveness probe: 503 "degraded" once a query
//	                     has read a corrupt segment block
//	GET  /metrics        the same counters plus per-endpoint latency
//	                     histograms in Prometheus text format (see
//	                     metrics.go and internal/metrics)
//	POST /reload         run an incremental update (or a full rebuild
//	                     with ?mode=full)
//
// /search and /suggest are served by the FrontDoor (frontdoor.go), the one
// copy of the public query surface — parsing, validation, error bodies,
// request counters and latency histograms — that a node and a broker
// (internal/broker) both stand behind; the Server supplies only how a
// normalized query and a suggest are answered from its catalog.
//
// Every query is evaluated against the catalog under its request's own
// context, so its deadline or a client's disconnect stops the evaluation.
// Reloads commit through the catalog's maintenance path, which advances
// the generation a response reports.
package server

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"desksearch"
	"desksearch/internal/metrics"
	"desksearch/internal/search"
	"desksearch/internal/timing"
)

// Config wires a Server to its catalog and reload sources.
type Config struct {
	// Catalog answers the queries. Required.
	Catalog *desksearch.Catalog
	// Update runs an incremental reload (typically Catalog.UpdateDir
	// against the watched root) and reports what changed. nil disables
	// /reload and Watch.
	Update func() (desksearch.UpdateStats, error)
	// Rebuild builds a replacement catalog from scratch; /reload?mode=full
	// swaps it in atomically. nil disables full reloads.
	Rebuild func() (*desksearch.Catalog, error)
	// CacheEntries is ignored: the server keeps no result cache. It stays
	// only because the benchmark module still sets it.
	CacheEntries int
	// Timeout bounds each request's query evaluation; zero falls back to
	// 10 s. A request's own timeout parameter may shorten but never
	// exceed it.
	Timeout time.Duration
	// MaxLimit caps the per-request limit parameter (and replaces an
	// unbounded limit=0) so one request cannot materialize the entire
	// catalog; zero falls back to 1000.
	MaxLimit int
	// Logf, when non-nil, receives one line per reload and per watch
	// error.
	Logf func(format string, args ...any)
	// Worker additionally exposes the distributed-serving endpoints
	// (/internal/meta, /internal/df, /internal/search) a scatter-gather
	// broker fans queries out to — dsearchd's -worker mode. The public
	// endpoints stay available, so a worker can also be queried directly.
	Worker bool
}

// Server is the daemon's HTTP state. Create with New; serve via Handler.
type Server struct {
	cat     *desksearch.Catalog
	update  func() (desksearch.UpdateStats, error)
	rebuild func() (*desksearch.Catalog, error)
	logf    func(string, ...any)
	start   time.Time
	worker  bool

	// door serves /search and /suggest and owns what every query endpoint
	// shares: the timeout ceiling and the queries/query-errors counters.
	door *FrontDoor

	// partMu guards partTimings: one sliding window of evaluation wall
	// times per global partition ID, fed by every query and summarized in
	// /stats.
	partMu      sync.Mutex
	partTimings map[int]*timing.Window

	// reloadMu serializes /reload and Watch ticks.
	reloadMu sync.Mutex

	// statsMu guards the per-generation memo of Catalog.Stats: the exact
	// distinct-term count walks every partition's term table, far too
	// expensive to recompute for every monitoring poll, and between
	// reloads it cannot change.
	statsMu   sync.Mutex
	statsGen  uint64
	statsOK   bool
	statsSnap desksearch.Stats

	reloads atomic.Uint64

	// reg is the /metrics exposition surface, built once in New over the
	// front door's instruments and the state above (see metrics.go).
	reg *metrics.Registry
}

// New returns a server over cfg. It panics when cfg.Catalog is nil — the
// daemon cannot exist without one.
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		panic("server: Config.Catalog is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		cat:         cfg.Catalog,
		update:      cfg.Update,
		rebuild:     cfg.Rebuild,
		logf:        logf,
		start:       time.Now(),
		worker:      cfg.Worker,
		partTimings: make(map[int]*timing.Window),
		reg:         metrics.NewRegistry(),
	}
	s.door = NewFrontDoor(Backend{Search: s.search, Suggest: s.suggest, ErrorStatus: nodeErrorStatus},
		cfg.Timeout, cfg.MaxLimit, s.reg)
	s.registerMetrics()
	return s
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.door.Register(mux)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /reload", s.handleReload)
	if s.worker {
		mux.HandleFunc("GET /internal/meta", s.handleWorkerMeta)
		mux.HandleFunc("GET /internal/df", s.handleWorkerDF)
		mux.HandleFunc("POST /internal/search", s.handleWorkerSearch)
	}
	return mux
}

// globalID maps a catalog-local partition index to its global partition
// ID (a shard number, for a subset worker) under ids, the catalog's
// PartitionIDs.
func globalID(ids []int, local int) int {
	if local < len(ids) {
		return ids[local]
	}
	return local
}

// observePartitions feeds one evaluation's per-partition wall times
// into the server's sliding windows, keyed by global partition ID, so
// /stats summarizes them. ids is the catalog's PartitionIDs, which the
// caller reads once per request.
func (s *Server) observePartitions(parts []desksearch.PartitionTiming, ids []int) {
	s.partMu.Lock()
	for _, p := range parts {
		id := globalID(ids, p.Partition)
		w := s.partTimings[id]
		if w == nil {
			w = timing.NewWindow(0)
			s.partTimings[id] = w
		}
		w.Observe(p.Duration)
	}
	s.partMu.Unlock()
}

// wirePartitions renders an evaluation's per-partition counts and wall
// times, labelled by catalog-local index — or, given the catalog's
// PartitionIDs, by global ID.
func wirePartitions(parts []desksearch.PartitionTiming, ids []int) []PartitionStat {
	out := make([]PartitionStat, len(parts))
	for i, p := range parts {
		out[i] = PartitionStat{
			Partition:  globalID(ids, p.Partition),
			Matched:    p.Matched,
			DurationUS: float64(p.Duration.Nanoseconds()) / 1e3,
		}
	}
	return out
}

// partitionTimingStats summarizes the per-partition windows for /stats,
// ordered by partition ID.
func (s *Server) partitionTimingStats() []PartitionTimingStat {
	s.partMu.Lock()
	ids := make([]int, 0, len(s.partTimings))
	for id := range s.partTimings {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]PartitionTimingStat, 0, len(ids))
	for _, id := range ids {
		if sum, ok := s.partTimings[id].Snapshot(); ok {
			out = append(out, PartitionTimingStat{
				Partition: id,
				Queries:   sum.Count,
				MinUS:     float64(sum.Min.Nanoseconds()) / 1e3,
				MedianUS:  float64(sum.Median.Nanoseconds()) / 1e3,
				P95US:     float64(sum.P95.Nanoseconds()) / 1e3,
				MaxUS:     float64(sum.Max.Nanoseconds()) / 1e3,
			})
		}
	}
	s.partMu.Unlock()
	return out
}

// SearchResponse is the JSON shape of /search.
type SearchResponse struct {
	// Query is the canonical form of the evaluated expression.
	Query string `json:"query"`
	// Generation identifies the catalog state that produced the result.
	Generation uint64 `json:"generation"`
	// TookMS is the server-side handling time in milliseconds.
	TookMS float64 `json:"took_ms"`
	// Total counts matches across the whole catalog.
	Total int `json:"total"`
	// Hits is the requested page; the front door sends no hits as an empty
	// array, never null.
	Hits []desksearch.Hit `json:"hits"`
	// Partitions reports per-partition match counts and evaluation times.
	Partitions []PartitionStat `json:"partitions"`
}

// PartitionStat is one partition's share of a query's work.
type PartitionStat struct {
	Partition  int     `json:"partition"`
	Matched    int     `json:"matched"`
	DurationUS float64 `json:"duration_us"`
}

// StatsResponse is the JSON shape of /stats.
type StatsResponse struct {
	Files      int     `json:"files"`
	Terms      int     `json:"terms"`
	Postings   int64   `json:"postings"`
	Skipped    int     `json:"skipped"`
	Indices    int     `json:"indices"`
	Generation uint64  `json:"generation"`
	UptimeS    float64 `json:"uptime_s"`

	// OpenMode is how the catalog is held: "heap" (fully materialized) or
	// "lazy" (posting blocks served from segment files on demand).
	OpenMode string `json:"open_mode"`
	// PartitionBytes estimates each partition's resident heap footprint in
	// partition order — for a lazy catalog, the dictionary plus currently
	// cached posting blocks, the number that shows what lazy open saves.
	PartitionBytes []int64 `json:"partition_bytes"`

	Queries     uint64 `json:"queries"`
	QueryErrors uint64 `json:"query_errors"`
	Reloads     uint64 `json:"reloads"`

	// Cache is never set: the server keeps no result cache. It stays only
	// because the benchmark module still reads it.
	Cache *CacheStats `json:"cache,omitempty"`

	// BlockCache reports a lazy catalog's posting-block cache: the byte
	// budget (the -block-cache-bytes flag) and current estimated usage.
	// Absent for eager catalogs.
	BlockCache *BlockCacheStats `json:"block_cache,omitempty"`

	// PartitionTimings summarizes recent per-partition evaluation wall
	// times (a sliding window of the last few hundred queries),
	// keyed by global partition ID — shard numbers for a worker serving a
	// subset — where evaluation time goes inside this node. (A broker sets
	// its hedge delays and attempt timeouts from its own window of
	// round-trip times, not from this.) Absent until the first query.
	PartitionTimings []PartitionTimingStat `json:"partition_timings,omitempty"`

	// Worker, when present, describes the worker's place in a distributed
	// deployment: which global shards it serves out of how many.
	Worker *WorkerStats `json:"worker,omitempty"`
}

// BlockCacheStats is the lazy posting-block cache block of /stats.
type BlockCacheStats struct {
	BudgetBytes int64 `json:"budget_bytes"`
	UsedBytes   int64 `json:"used_bytes"`
}

// PartitionTimingStat summarizes one partition's recent evaluation times.
type PartitionTimingStat struct {
	Partition int     `json:"partition"`
	Queries   uint64  `json:"queries"`
	MinUS     float64 `json:"min_us"`
	MedianUS  float64 `json:"median_us"`
	P95US     float64 `json:"p95_us"`
	MaxUS     float64 `json:"max_us"`
}

// WorkerStats is the worker block of /stats.
type WorkerStats struct {
	// Shards lists the global shard numbers this worker serves.
	Shards []int `json:"shards"`
	// TotalShards is the directory's full shard count.
	TotalShards int `json:"total_shards"`
}

// CacheStats is the type of StatsResponse.Cache, which is never set.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

// ReloadResponse is the JSON shape of /reload.
type ReloadResponse struct {
	Mode       string  `json:"mode"`
	Generation uint64  `json:"generation"`
	TookMS     float64 `json:"took_ms"`

	// Incremental reload counters (zero for mode=full).
	Added           int   `json:"added"`
	Modified        int   `json:"modified"`
	Deleted         int   `json:"deleted"`
	PostingsRemoved int64 `json:"postings_removed"`
	PostingsAdded   int64 `json:"postings_added"`
	SkippedFiles    int   `json:"skipped_files"`
}

// search is the node's Backend.Search: evaluate q against the catalog
// under the request's context.
func (s *Server) search(ctx context.Context, q desksearch.Query) (*SearchResponse, error) {
	// The generation is read before evaluation, so a reload committing
	// while the query runs never labels a pre-reload answer as newer.
	gen := s.cat.Generation()
	resp, err := s.cat.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	s.observePartitions(resp.Partitions, s.cat.PartitionIDs())
	return &SearchResponse{
		Generation: gen,
		Total:      resp.Total,
		Hits:       resp.Hits,
		Partitions: wirePartitions(resp.Partitions, nil),
	}, nil
}

// SuggestResponse is the JSON shape of /suggest.
type SuggestResponse struct {
	// Prefix is the normalized prefix the suggestions complete.
	Prefix string `json:"prefix"`
	// Generation identifies the catalog state that produced the result.
	Generation uint64 `json:"generation"`
	// TookMS is the server-side handling time in milliseconds.
	TookMS float64 `json:"took_ms"`
	// Suggestions are ranked by descending document frequency, then term.
	Suggestions []desksearch.Suggestion `json:"suggestions"`
}

// suggest is the node's Backend.Suggest.
func (s *Server) suggest(ctx context.Context, prefix string, n int) (*SuggestResponse, error) {
	p, err := search.SuggestPrefix(prefix)
	if err != nil {
		return nil, err
	}
	gen := s.cat.Generation()
	sugs, err := s.cat.Suggest(ctx, prefix, n)
	if err != nil {
		return nil, err
	}
	return &SuggestResponse{
		Prefix:      p,
		Generation:  gen,
		Suggestions: sugs,
	}, nil
}

// catalogStats returns Catalog.Stats memoized per generation. A snapshot
// computed while a reload races the memo may be stored under the older
// generation; the next poll at the new generation simply recomputes.
func (s *Server) catalogStats() (desksearch.Stats, uint64) {
	gen := s.cat.Generation()
	s.statsMu.Lock()
	if s.statsOK && s.statsGen == gen {
		snap := s.statsSnap
		s.statsMu.Unlock()
		return snap, gen
	}
	s.statsMu.Unlock()
	snap := s.cat.Stats()
	s.statsMu.Lock()
	s.statsGen, s.statsSnap, s.statsOK = gen, snap, true
	s.statsMu.Unlock()
	return snap, gen
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs, gen := s.catalogStats()
	mode := "heap"
	if s.cat.Lazy() {
		mode = "lazy"
	}
	out := StatsResponse{
		Files:          cs.Files,
		Terms:          cs.Terms,
		Postings:       cs.Postings,
		Skipped:        cs.Skipped,
		Indices:        s.cat.Indices(),
		Generation:     gen,
		UptimeS:        time.Since(s.start).Seconds(),
		OpenMode:       mode,
		PartitionBytes: s.cat.PartitionBytes(),
		Queries:        s.door.Queries.Load(),
		QueryErrors:    s.door.QueryErrors.Load(),
		Reloads:        s.reloads.Load(),
	}
	if budget, used, ok := s.cat.BlockCache(); ok {
		out.BlockCache = &BlockCacheStats{BudgetBytes: budget, UsedBytes: used}
	}
	out.PartitionTimings = s.partitionTimingStats()
	if s.worker {
		out.Worker = &WorkerStats{
			Shards:      s.cat.PartitionIDs(),
			TotalShards: s.cat.TotalShards(),
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleHealthz answers 200 "ok", or 503 "degraded" with the count once a
// query has read a posting block that failed verification: the node still
// answers what stays off the bad block, but a broker's health sweep then
// tries its healthy peers first. A full reload that swaps the catalog
// clears it, since the count is the serving catalog's.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, map[string]any{"status": "ok", "generation": s.cat.Generation()}
	if n := s.cat.SegmentCorruptions(); n > 0 {
		status = http.StatusServiceUnavailable
		body["status"], body["segment_corruptions"] = "degraded", n
	}
	WriteJSON(w, status, body)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	mode := r.URL.Query().Get("mode")
	switch mode {
	case "", "update":
		if s.update == nil {
			writeError(w, http.StatusNotImplemented, "%v", errNoUpdate)
			return
		}
		start := time.Now()
		st, err := s.Reload()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "reload: %v", err)
			return
		}
		WriteJSON(w, http.StatusOK, ReloadResponse{
			Mode:            "update",
			Generation:      s.cat.Generation(),
			TookMS:          float64(time.Since(start).Microseconds()) / 1e3,
			Added:           st.Added,
			Modified:        st.Modified,
			Deleted:         st.Deleted,
			PostingsRemoved: st.PostingsRemoved,
			PostingsAdded:   st.PostingsAdded,
			SkippedFiles:    st.SkippedFiles,
		})
	case "full":
		if s.rebuild == nil {
			writeError(w, http.StatusNotImplemented, "full reload disabled: no rebuild source configured")
			return
		}
		start := time.Now()
		if err := s.fullReload(); err != nil {
			writeError(w, http.StatusInternalServerError, "rebuild: %v", err)
			return
		}
		WriteJSON(w, http.StatusOK, ReloadResponse{
			Mode:       "full",
			Generation: s.cat.Generation(),
			TookMS:     float64(time.Since(start).Microseconds()) / 1e3,
		})
	default:
		writeError(w, http.StatusBadRequest, "unknown reload mode %q (want update or full)", mode)
	}
}

// errNoUpdate is what a reload answers on a server built without
// Config.Update.
var errNoUpdate = errors.New("reload disabled: no update source configured")

// Reload runs the incremental update source, which advances the
// generation when anything changed. Safe to call directly (the watch loop
// does); concurrent reloads serialize. Without an update source it returns
// an error and changes nothing.
func (s *Server) Reload() (desksearch.UpdateStats, error) {
	if s.update == nil {
		return desksearch.UpdateStats{}, errNoUpdate
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st, err := s.update()
	if err != nil {
		return st, err
	}
	s.reloads.Add(1)
	if st.Added+st.Modified+st.Deleted > 0 {
		s.logf("reload: +%d ~%d -%d files (generation %d)",
			st.Added, st.Modified, st.Deleted, s.cat.Generation())
	}
	return st, nil
}

// fullReload rebuilds the catalog from scratch and swaps it in atomically.
func (s *Server) fullReload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	fresh, err := s.rebuild()
	if err != nil {
		return err
	}
	s.cat.Swap(fresh)
	s.reloads.Add(1)
	s.logf("full reload complete (generation %d)", s.cat.Generation())
	return nil
}

// Watch polls the update source every interval until ctx is done — the
// daemon's -watch mode. Each tick runs the same reload path as /reload.
// Without an update source there is nothing to poll, and Watch returns at
// once.
func (s *Server) Watch(ctx context.Context, interval time.Duration) {
	if s.update == nil {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := s.Reload(); err != nil {
				s.logf("watch: reload failed: %v", err)
			}
		}
	}
}
