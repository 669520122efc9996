// Package desksearch is a parallel index generator and search engine for
// desktop search, reproducing Meder & Tichy, "Parallelizing an Index
// Generator for Desktop Search" (Karlsruhe Reports in Informatics 2010-9).
//
// The package builds an inverted index — for every term, the files that
// contain it — over a directory tree, using the paper's three-stage
// pipeline (filename generation, term extraction, index update) in the
// design that won on high core counts, its Implementation 3: partitions
// filled each by exactly one updater, never joined, searched in parallel.
// Options.Extractors and Options.Updaters are the paper's thread tuple
// (x, y); (1, 0) is the sequential baseline, and zero options size the
// tuple for the machine. The paper's other two designs, one lock-guarded
// shared index and replicas joined at the end, tie with it on four cores
// and lose on 32; docs/ARCHITECTURE.md keeps their measurements.
//
// # Quick start
//
//	cat, err := desksearch.IndexDir("/home/me/documents", desksearch.Options{})
//	if err != nil { ... }
//	resp, err := cat.Query(ctx, desksearch.Query{
//		Text:  "quarterly report -draft",
//		Limit: 10,
//	})
//	if err != nil { ... }
//	fmt.Println(resp.Total, "matches")
//	for _, h := range resp.Hits {
//		fmt.Println(h.Path, h.Terms)
//	}
//
// IndexDir is IndexFS over os.DirFS(dir); IndexFS, Catalog.Update, Diff
// and Apply take any io/fs file system, an in-memory fstest.MapFS
// included. A build indexes regular files: a symbolic link to a file
// counts, with its target's size and modification time, a link to a
// directory is not followed, and named pipes, devices and sockets are
// left out.
//
// Query is the v2 search API: requests carry pagination (Limit/Offset,
// answered with bounded per-partition top-k retrieval instead of a full
// sort: partitions keep their top candidates, and only the page gets a
// path and terms), a Ranking mode (distinct-term coordination counts or summed term
// frequencies), and an optional path-prefix filter; responses carry the
// page of hits with matched-term metadata, the total match count, and
// per-partition timings. The context cancels or bounds the query.
// Evaluation failures are typed: errors.As against *QueryError exposes a
// stable machine-readable Code alongside the sentinel the error wraps
// (ErrNoPositions, ErrPrefixTooBroad). A zero-control Query returns every
// hit, coordination-ranked. The request and result vocabulary (Ranking,
// Expr, DocFreqs, QueryError, Hit, Snippet, Response) aliases the types of
// the engine underneath, so the same values travel from the engine to the
// wire without a copy.
//
// The query grammar supports implicit AND, OR, NOT (or a leading '-'),
// parentheses, and quoted phrases: `"annual report" -draft` matches files
// containing the words annual and report at consecutive positions and not
// containing draft. Phrase queries need a catalog built with
// Options.Positions (persisted as a flags bit — see docs/FORMAT.md); against
// a position-free catalog they fail with a clear error. The README's
// query-syntax reference documents the full grammar.
//
// # Sharded indexes
//
// Every catalog is partitioned into document shards: every posting of a
// given file lives in exactly one shard, chosen by an FNV-1 hash of its
// FileID. Options.Shards sets their number; left at 0, there is one per
// updater, or one when there are none. The shards are Stage 3's sinks:
// every term block is routed to its file's shard as it leaves Stage 2, so
// no build pays a redistribution pass. Queries fan out over the shards on
// a fixed set of long-lived workers, one per core, and merge the per-shard
// ranked hits, so a sharded catalog answers exactly like the equivalent
// single index.
//
// # Persistence
//
// Catalog.SaveDir is the one way a catalog is persisted: a directory of
// DSIX version 11 files, a manifest plus one segment file per shard,
// written and reloaded in parallel. Every byte is covered by a CRC-32C
// checksum, verified before it is parsed. LoadDir materializes a directory on
// the heap (the form that accepts Update); OpenDir and OpenDirShards serve
// it in place, read-only, decoding posting blocks on demand.
//
// # Serving
//
// cmd/dsearchd serves a catalog over HTTP as a long-running daemon:
// /search, /stats, /healthz, and /reload endpoints, per-request timeouts
// through context cancellation, a bounded LRU result cache keyed on the
// normalized query and the catalog Generation (so reloads atomically
// invalidate stale results), single-flight de-duplication of identical
// concurrent queries, and a -watch mode that polls the indexed root
// through the incremental delta pipeline. Catalog.Swap supports full
// rebuilds cut over atomically under load. With -broker the same daemon
// fronts a fleet of -worker daemons instead of a catalog; /search and
// /suggest are one front door (internal/server.FrontDoor) that a node and
// a broker both stand behind, so clients cannot tell them apart.
//
// # Measuring against the paper
//
// `indexgen -stages` measures the paper's Table 1, the sequential stage
// times, on the running machine (core.MeasureStages). The benchmark in
// bench/ reports the same stages for every build it times when run with
// --trace 1 (walk.list_ms, extract.read_ms, extract.scan_ms,
// index.insert_ms). docs/ARCHITECTURE.md lists what the paper measured.
package desksearch
