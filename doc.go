// Package desksearch is a parallel index generator and search engine for
// desktop search, reproducing Meder & Tichy, "Parallelizing an Index
// Generator for Desktop Search" (Karlsruhe Reports in Informatics 2010-9).
//
// The package builds an inverted index — for every term, the files that
// contain it — over a directory tree, using the paper's three-stage
// pipeline (filename generation, term extraction, index update) and its
// three parallel designs:
//
//   - SharedIndex: one index, locked on update (the paper's
//     Implementation 1);
//   - ReplicatedJoin: one private index per updater, merged at the end by
//     the "Join Forces" pattern (Implementation 2);
//   - ReplicatedSearch: private indices left unjoined, searched in
//     parallel (Implementation 3 — the winner on high core counts).
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
// Query is the v2 search API: requests carry pagination (Limit/Offset,
// answered with bounded per-partition top-k retrieval instead of a full
// sort), a Ranking mode (distinct-term coordination counts or summed term
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
// Options.Shards partitions the catalog into document shards: every
// posting of a given file lives in exactly one shard, chosen by an FNV-1
// hash of its FileID. The shards are Stage 3's sinks: every term block is
// routed to its file's shard as it is inserted, under every implementation,
// so a sharded build pays no join or redistribution pass. Queries fan
// out with one goroutine per shard and merge the per-shard ranked hits, so
// a sharded catalog answers exactly like the equivalent single index.
//
// # Persistence
//
// Catalog.SaveDir is the one way a catalog is persisted: a directory
// holding a checksummed manifest plus one segment file per partition —
// the shards, or for an unsharded catalog its own indices, unjoined —
// written and reloaded in parallel. LoadDir materializes a directory on
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
// The experiment harness that regenerates the paper's Tables 1–4 on
// simulated 4-, 8-, and 32-core machines lives in cmd/experiments; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package desksearch
