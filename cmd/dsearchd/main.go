// Command dsearchd is the desktop-search daemon: it loads (or builds) a
// catalog once, keeps it memory-resident, and serves concurrent queries
// over HTTP — the resident query broker in front of the partitioned index.
//
// Usage:
//
//	dsearchd -root DIR [-shards N] [-formats] [flags]
//	dsearchd -index DIR [-root DIR] [flags]
//	dsearchd -index DIR -lazy [flags]
//	dsearchd -index DIR -worker [-shards 0,2] [flags]
//	dsearchd -broker -workers URLS [flags]
//
// -root builds the index at startup; -index loads a saved one (the
// directory written by indexgen -save; a regular file is a usage error).
// With both, the saved index is loaded and then kept in step with DIR:
// -watch polls it on an interval, and POST /reload updates on demand —
// both run the incremental delta pipeline and atomically invalidate the
// query cache, so no request is ever answered from a stale generation.
//
// -lazy serves the directory without materializing it: startup reads
// only the term dictionaries, and posting data is mapped and decoded per
// query (see desksearch.OpenDir). The catalog is read-only — -lazy
// conflicts with -root and -watch — and /stats reports open_mode "lazy"
// with the per-partition resident-byte estimates. -block-cache-bytes
// bounds the decoded posting-block cache.
//
// -worker turns the daemon into a distributed-serving worker: the internal
// scatter-gather endpoints (/internal/meta, /internal/df,
// /internal/search) come up next to the public ones. With -shards as a
// comma-separated list of shard numbers ("0,2"), only those segments of
// the -index directory are opened (lazily, per shard subset); the
// directory must be hash-routed, i.e. built with a shard count.
//
// -broker runs the scatter-gather front end instead of serving an index:
// -workers declares the replica topology as comma-separated groups of
// |-separated worker URLs ("http://a:7701|http://a2:7701,http://b:7702" is
// two groups, the first with two replicas). The broker verifies at startup
// that the groups' shard subsets tile the directory, then serves the same
// public API as a single node, with per-group failover and hedged
// requests.
//
// Endpoints:
//
//	GET  /search?q=QUERY&limit=N&offset=N&rank=count|tf|bm25&prefix=P&timeout=D
//	GET  /suggest?q=PREFIX&n=N
//	GET  /stats
//	GET  /healthz
//	GET  /metrics           (Prometheus text format)
//	POST /reload            (add ?mode=full to rebuild from scratch)
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ (CPU
// and heap profiles, goroutine dumps) in both node and broker modes —
// opt-in because the profiling surface exposes internals that do not
// belong on a production listener by default.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"desksearch"
	"desksearch/internal/broker"
	"desksearch/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7700", "listen address")
		indexPath    = flag.String("index", "", "load a saved index from this directory")
		root         = flag.String("root", "", "directory to index at startup (and to watch for changes)")
		shards       = flag.String("shards", "", "with -root, partition the index into N document shards; with -worker, the comma-separated list of shard numbers to serve (empty = all)")
		formats      = flag.Bool("formats", false, "strip HTML/WP markup while indexing")
		lazy         = flag.Bool("lazy", false, "with -index DIR, serve segment files lazily (mmap + on-demand decode) instead of loading them into memory; the catalog is read-only")
		watch        = flag.Duration("watch", 0, "poll -root for changes on this interval (0 = off)")
		cacheEntries = flag.Int("cache-entries", 1024, "query cache entry bound (negative disables the cache)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "query cache byte budget")
		blockCache   = flag.Int64("block-cache-bytes", 0, "posting-block cache byte budget for lazy catalogs (0 = built-in default)")
		timeout      = flag.Duration("timeout", 10*time.Second, "per-request query timeout ceiling")
		maxLimit     = flag.Int("max-limit", 1000, "cap on the per-request limit parameter")
		drain        = flag.Duration("drain", 5*time.Second, "in-flight request drain budget on shutdown")
		worker       = flag.Bool("worker", false, "serve the distributed-serving worker endpoints (/internal/*)")
		brokerMode   = flag.Bool("broker", false, "run as a scatter-gather broker over -workers instead of serving an index")
		workers      = flag.String("workers", "", "with -broker, the worker topology: comma-separated replica groups of |-separated URLs")
		hedge        = flag.Duration("hedge", 0, "with -broker, fixed hedged-request delay (0 = adaptive, p95 of recent group latencies)")
		healthEvery  = flag.Duration("health-interval", 2*time.Second, "with -broker, worker health poll interval")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	)
	flag.Parse()

	if *brokerMode {
		switch {
		case *workers == "":
			fmt.Fprintln(os.Stderr, "dsearchd: -broker needs -workers with at least one worker URL")
			os.Exit(2)
		case *indexPath != "" || *root != "" || *worker || *lazy:
			fmt.Fprintln(os.Stderr, "dsearchd: -broker serves no index of its own; it conflicts with -index, -root, -worker, and -lazy")
			os.Exit(2)
		}
		runBroker(*addr, *workers, *timeout, *hedge, *healthEvery, *drain, *maxLimit, *pprofOn)
		return
	}

	if *indexPath == "" && *root == "" {
		fmt.Fprintln(os.Stderr, "usage: dsearchd (-root DIR | -index DIR | -broker -workers URLS) [flags]")
		os.Exit(2)
	}
	if err := checkIndexDir(*indexPath); err != nil {
		fmt.Fprintln(os.Stderr, "dsearchd:", err)
		os.Exit(2)
	}
	if *watch > 0 && *root == "" {
		fmt.Fprintln(os.Stderr, "dsearchd: -watch needs -root to poll")
		os.Exit(2)
	}
	shardCount, shardSubset, err := parseShardsFlag(*shards, *worker)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsearchd: %v\n", err)
		os.Exit(2)
	}
	if len(shardSubset) > 0 {
		// A shard subset only makes sense against a saved, hash-routed
		// directory; it forces the lazy per-segment open path.
		switch {
		case *indexPath == "":
			fmt.Fprintln(os.Stderr, "dsearchd: -worker -shards needs -index DIR (a sharded index directory)")
			os.Exit(2)
		case *root != "":
			fmt.Fprintln(os.Stderr, "dsearchd: a shard-subset worker serves a read-only directory; it conflicts with -root")
			os.Exit(2)
		}
	}
	if *lazy {
		// A lazy catalog is read-only: it cannot absorb incremental
		// updates, so every way of asking for them is a flag conflict.
		switch {
		case *indexPath == "":
			fmt.Fprintln(os.Stderr, "dsearchd: -lazy needs -index DIR (a sharded index directory)")
			os.Exit(2)
		case *root != "":
			fmt.Fprintln(os.Stderr, "dsearchd: -lazy serves a read-only catalog; it cannot watch or update -root")
			os.Exit(2)
		}
	}

	opts := desksearch.Options{
		Formats:         *formats,
		Shards:          shardCount,
		BlockCacheBytes: *blockCache,
	}
	var cat *desksearch.Catalog
	start := time.Now()
	if *indexPath != "" {
		cat, err = loadIndex(*indexPath, *lazy, shardSubset, opts)
	} else {
		cat, err = desksearch.IndexDir(*root, opts)
	}
	if err != nil {
		log.Fatalf("dsearchd: %v", err)
	}
	mode := "heap"
	if cat.Lazy() {
		mode = "lazy"
	}
	st := cat.Stats()
	log.Printf("catalog ready in %s (%s): %d files, %d terms, %d postings, %d partition(s)",
		time.Since(start).Round(time.Millisecond), mode, st.Files, st.Terms, st.Postings, cat.Indices())
	if *worker && len(shardSubset) > 0 {
		log.Printf("worker serving shards %v of %d", cat.PartitionIDs(), cat.TotalShards())
	}

	cfg := server.Config{
		Catalog:      cat,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		Timeout:      *timeout,
		MaxLimit:     *maxLimit,
		Logf:         log.Printf,
		Worker:       *worker,
	}
	if *root != "" {
		dir := *root
		cfg.Update = func() (desksearch.UpdateStats, error) { return cat.UpdateDir(dir) }
		cfg.Rebuild = func() (*desksearch.Catalog, error) { return desksearch.IndexDir(dir, opts) }
	}
	srv := server.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watch > 0 {
		log.Printf("watching %s every %s", *root, *watch)
		go srv.Watch(ctx, *watch)
	}
	serveHTTP(ctx, *addr, maybePprof(srv.Handler(), *pprofOn), *drain)
}

// runBroker brings up the scatter-gather front end and blocks until
// shutdown.
func runBroker(addr, workers string, timeout, hedge, healthEvery, drain time.Duration, maxLimit int, pprofOn bool) {
	groups := parseWorkerGroups(workers)
	b, err := broker.New(broker.Config{
		Groups:     groups,
		Timeout:    timeout,
		MaxLimit:   maxLimit,
		HedgeAfter: hedge,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatalf("dsearchd: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	topoCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	err = b.CheckTopology(topoCtx)
	cancel()
	if err != nil {
		log.Fatalf("dsearchd: %v", err)
	}
	log.Printf("broker topology verified: %d group(s)", len(groups))
	go b.Watch(ctx, healthEvery)
	serveHTTP(ctx, addr, maybePprof(b.Handler(), pprofOn), drain)
}

// maybePprof wraps h with the net/http/pprof routes under /debug/pprof/
// when enabled. The profiling endpoints are mounted on an explicit outer
// mux, never the DefaultServeMux, and stay opt-in: they expose stack
// traces and heap contents, which do not belong on an always-on
// production surface.
func maybePprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// serveHTTP serves h on addr until ctx is cancelled (SIGINT/SIGTERM),
// then shuts down gracefully: the listener closes immediately, in-flight
// requests get up to drain to finish, and stragglers are cut off.
func serveHTTP(ctx context.Context, addr string, h http.Handler, drain time.Duration) {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on http://%s", addr)

	select {
	case err := <-errc:
		log.Fatalf("dsearchd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining up to %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("dsearchd: drain budget exceeded; closing remaining connections")
			httpSrv.Close()
		} else {
			log.Printf("dsearchd: shutdown: %v", err)
		}
	}
}

// parseShardsFlag resolves the two readings of -shards: a shard count for
// builds ("4"), or — in worker mode — the comma-separated list of global
// shard numbers to serve ("0,2").
func parseShardsFlag(v string, worker bool) (count int, subset []int, err error) {
	if v == "" {
		return 0, nil, nil
	}
	if worker {
		for _, f := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 0 {
				return 0, nil, fmt.Errorf("invalid -shards list %q (want comma-separated shard numbers)", v)
			}
			subset = append(subset, n)
		}
		return 0, subset, nil
	}
	count, err = strconv.Atoi(v)
	if err != nil || count < 0 {
		return 0, nil, fmt.Errorf("invalid -shards %q (want a shard count)", v)
	}
	return count, nil, nil
}

// parseWorkerGroups splits the -workers topology: groups by comma,
// replicas within a group by pipe.
func parseWorkerGroups(v string) [][]string {
	var groups [][]string
	for _, g := range strings.Split(v, ",") {
		var replicas []string
		for _, r := range strings.Split(g, "|") {
			if r = strings.TrimSpace(r); r != "" {
				replicas = append(replicas, r)
			}
		}
		if len(replicas) > 0 {
			groups = append(groups, replicas)
		}
	}
	return groups
}

// checkIndexDir rejects an -index path that is a regular file: an index is
// a directory, and a file there is most likely a single-file index an
// earlier version wrote.
func checkIndexDir(path string) error {
	if info, err := os.Stat(path); err == nil && !info.IsDir() {
		return fmt.Errorf("-index %s is a regular file; an index is a directory (manifest.dsix + segments): rebuild it with indexgen -save DIR", path)
	}
	return nil
}

// loadIndex reads the index directory at path: in place when lazy or when
// only the shards in subset are wanted (a worker's share), materialized
// otherwise. The build options ride along so incremental updates re-extract
// consistently.
func loadIndex(path string, lazy bool, subset []int, opts desksearch.Options) (*desksearch.Catalog, error) {
	if lazy || len(subset) > 0 {
		return desksearch.OpenDirShards(path, subset, opts)
	}
	return desksearch.LoadDir(path, opts)
}
