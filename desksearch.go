package desksearch

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"sync"

	"desksearch/internal/core"
	"desksearch/internal/delta"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/search"
	"desksearch/internal/shard"
)

// Options configure index construction. The zero value auto-configures for
// the host machine.
type Options struct {
	// Extractors and Updaters are the paper's (x, y) thread tuple for its
	// Implementation 3: x goroutines extract terms and y update the
	// partitions, each partition filled by exactly one updater. A zero
	// Extractors means one per CPU, and Updaters 2 when it is zero too.
	// (1, 0) is the sequential baseline; with several extractors, a zero
	// Updaters runs one updater.
	Extractors, Updaters int
	// Shards, when positive, partitions the catalog into that many
	// document shards, searched with parallel fan-out and saved with
	// SaveDir as a manifest plus one segment file per shard. At most
	// 65 536, the most segments one index directory holds. Zero means one
	// per updater, or one when there are none. Either way a file's shard
	// is a hash of its ID.
	Shards int
	// Positions records each term occurrence's token position in the
	// index, enabling quoted phrase queries ("annual report") at the cost
	// of a larger index; the persisted files record it in a flags bit
	// (docs/FORMAT.md). Phrase queries against a catalog built without
	// positions fail with a clear error instead of guessing adjacency.
	Positions bool
	// BlockCacheBytes bounds the shared posting-block cache of lazily
	// opened catalogs (OpenDir, OpenDirShards): decoded posting blocks of
	// hot terms are kept up to this many estimated bytes, shared across
	// all partitions. Non-positive falls back to the package default
	// (segment.DefaultCacheBytes, 64 MiB). Ignored by eager loads and the
	// indexing entry points.
	BlockCacheBytes int64
}

// validate rejects option values that would misbehave downstream, with a
// descriptive error naming the field.
func (o Options) validate() error {
	for _, f := range []struct {
		name  string
		value int
	}{
		{"Extractors", o.Extractors},
		{"Updaters", o.Updaters},
		{"Shards", o.Shards},
	} {
		if f.value < 0 {
			return fmt.Errorf("desksearch: Options.%s must be non-negative, got %d", f.name, f.value)
		}
	}
	return nil
}

func (o Options) coreConfig() (core.Config, error) {
	if err := o.validate(); err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Extractors: o.Extractors,
		Updaters:   o.Updaters,
		Shards:     o.Shards,
		Extract:    extract.Options{Positions: o.Positions},
	}
	// Only the fields left zero are sized for the machine.
	if cfg.Extractors == 0 {
		auto := core.Auto(runtime.NumCPU())
		cfg.Extractors = auto.Extractors
		if cfg.Updaters == 0 {
			cfg.Updaters = auto.Updaters
		}
	}
	return cfg, nil
}

// Sentinel evaluation errors, re-exported so callers can errors.Is
// against them without reaching into internal packages. Query and
// DocFreqs return them wrapped in a *QueryError carrying the matching
// stable code.
var (
	// ErrNoPositions reports a phrase query or snippet request against a
	// catalog built without Options.Positions.
	ErrNoPositions = search.ErrNoPositions
	// ErrPrefixTooBroad reports a prefix operator that expanded to more
	// dictionary terms than the request's MaxPrefixTerms cap.
	ErrPrefixTooBroad = search.ErrPrefixTooBroad
	// ErrSegmentCorrupt reports a query that read a posting block of a
	// lazily opened catalog that failed verification: the answer would
	// have been incomplete, so the query fails instead.
	ErrSegmentCorrupt = search.ErrSegmentCorrupt
	// ErrInternal reports a request (Query, DocFreqs, Suggest) whose
	// evaluation panicked: the request fails, the process goes on serving.
	ErrInternal = search.ErrInternal
)

// The request vocabulary — like the result types further down — aliases
// the internal search types every layer from the engine to the wire
// shares, where the field and value semantics are documented.
type (
	// QueryErrorCode is the stable, wire-safe name of a query failure class.
	QueryErrorCode = search.QueryErrorCode
	// QueryError is a typed, deterministic query rejection, raised by the
	// engine where it detects the condition: Err is the sentinel above
	// (errors.Is sees through), Code the stable name transports key on.
	QueryError = search.QueryError
	// Ranking selects how Query scores hits; its String is the wire name.
	Ranking = search.Ranking
	// Expr is a parsed query expression, reusable across Query calls.
	// String renders it in canonical form; DFKeys names what a DocFreqs
	// vector for it counts.
	Expr = search.Query
	// DocFreqs is a query's corpus-global document-frequency vector — the
	// statistics half of BM25 scoring as plain, transportable data. See
	// Catalog.DocFreqs and Query.GlobalDF.
	DocFreqs = search.DocFreqs
)

const (
	// CodeNoPositions: phrase or snippet request, position-free catalog.
	CodeNoPositions = search.CodeNoPositions
	// CodePrefixTooBroad: prefix operator over the expansion cap.
	CodePrefixTooBroad = search.CodePrefixTooBroad
	// CodeSegmentCorrupt: a posting block failed verification while the
	// query read it — the index's fault, not the request's.
	CodeSegmentCorrupt = search.CodeSegmentCorrupt
	// CodeInternal: evaluating the request panicked — the serving
	// process's fault; the request fails and the process serves on.
	CodeInternal = search.CodeInternal

	// RankCount scores a hit by how many distinct positive query terms
	// the file contains (coordination ranking, the default).
	RankCount = search.RankCount
	// RankTF scores a hit by the summed occurrence counts of the positive
	// query terms in the file.
	RankTF = search.RankTF
	// RankBM25 scores a hit by Okapi BM25 relevance. Sharding never
	// changes BM25 scores: statistics aggregate across partitions first,
	// so a sharded catalog scores bit-identically to the same corpus
	// unsharded.
	RankBM25 = search.RankBM25
)

// ParseRanking resolves a ranking's wire name ("count", "tf", "bm25",
// case-insensitively) to its Ranking value; anything else is an error
// naming the accepted values.
func ParseRanking(s string) (Ranking, error) {
	switch strings.ToLower(s) {
	case "count":
		return RankCount, nil
	case "tf":
		return RankTF, nil
	case "bm25":
		return RankBM25, nil
	}
	return 0, fmt.Errorf("desksearch: unknown ranking %q (want count, tf, or bm25)", s)
}

// ParseQuery parses a boolean query ("cat dog", "cat OR dog",
// "report -draft", parentheses allowed, quoted phrases like
// `"annual report" -draft` — see the README's query-syntax reference) into
// a reusable expression. Evaluating a multi-word phrase requires a catalog
// built with Options.Positions.
func ParseQuery(text string) (*Expr, error) { return search.Parse(text) }

// Query is a search request: the query itself plus retrieval controls.
// The zero controls return every hit, coordination-ranked.
type Query struct {
	// Text is the boolean query string, in ParseQuery's grammar. Ignored
	// when Expr is set.
	Text string
	// Expr is an optional pre-parsed expression (ParseQuery), letting hot
	// paths skip re-parsing. Takes precedence over Text.
	Expr *Expr
	// Limit caps the returned hits; 0 means unlimited. With a limit, each
	// partition keeps only its local top Limit+Offset candidates, and
	// only the returned page is given paths and matched terms.
	Limit int
	// Offset skips that many ranked hits before the returned page.
	Offset int
	// Ranking selects the scoring mode.
	Ranking Ranking
	// PathPrefix, when non-empty, restricts hits to paths starting with
	// it; filtered-out matches do not count toward Response.Total.
	PathPrefix string
	// Snippets asks for a per-hit context window (Hit.Snippet) built from
	// the catalog's positional index. Requires a catalog built with
	// Options.Positions (the same error phrase queries give otherwise) and
	// a positive Limit.
	Snippets bool
	// MaxPrefixTerms caps how many dictionary terms a single prefix
	// operator ("repor*") may expand to before the request fails with
	// ErrPrefixTooBroad (code prefix_too_broad); 0 applies the default of
	// 1024. The cap is per operator and per partition, bounds both
	// evaluation and DocFreqs, and the same text under a different cap is
	// a different request.
	MaxPrefixTerms int
	// GlobalDF, when non-nil with RankBM25, supplies the corpus-wide
	// document-frequency statistics to score with instead of aggregating
	// them from this catalog — the distributed-serving hook. A broker
	// fanning one query out over catalogs that each hold a subset of the
	// corpus gathers every catalog's DocFreqs, sums them with
	// DocFreqs.Add, and attaches the total here; each subset then scores
	// with exactly the statistics the whole corpus would have produced,
	// keeping BM25 scores bit-identical to a single-node evaluation. The
	// vector must come from DocFreqs on the same normalized query.
	// Ignored by the other rankings; transports attach it per request,
	// after normalization.
	GlobalDF *DocFreqs
}

// request returns q in the engine's form, parsing Text unless Expr is set.
func (q Query) request() (search.Request, error) {
	expr := q.Expr
	if expr == nil {
		var err error
		if expr, err = search.Parse(q.Text); err != nil {
			return search.Request{}, err
		}
	}
	return search.Request{
		Query:          expr,
		Limit:          q.Limit,
		Offset:         q.Offset,
		Ranking:        q.Ranking,
		PathPrefix:     q.PathPrefix,
		Snippets:       q.Snippets,
		MaxPrefixTerms: q.MaxPrefixTerms,
		GlobalDF:       q.GlobalDF,
	}, nil
}

// Normalize parses the query (when Expr is unset), checks the retrieval
// controls with the engine's own validation, and returns a copy with Expr
// populated. Invalid requests (unparseable text, negative limit or offset,
// a limit plus offset past int, unknown ranking, snippets without a limit,
// a negative count in GlobalDF) are rejected here, at the edge — before
// they reach evaluation or cross a network hop.
func (q Query) Normalize() (Query, error) {
	req, err := q.request()
	if err == nil {
		err = req.Validate()
	}
	if err != nil {
		return q, err
	}
	q.Expr = req.Query
	return q, nil
}

// Hit is one search hit of the Query API. Its fields — and those of the
// result types below — are documented on the internal search types they
// alias, which every layer from the engine to the wire shares.
type Hit = search.Hit

// Span is a half-open byte range [Start, End) into a Snippet's Text.
type Span = search.Span

// Snippet is a hit's context window, reconstructed from the positional
// index alone — the original file is never re-read, so snippets work on
// catalogs loaded far from their corpus.
type Snippet = search.Snippet

// Suggestion is one autocomplete candidate: an indexed term and the number
// of files containing it, a TermCount like TopTerms' entries.
type Suggestion = index.TermCount

// PartitionTiming is one partition's share of a query's work: its match
// count and evaluation wall time.
type PartitionTiming = search.PartitionStat

// Response is the result of a v2 query: the requested page of Hits, the
// Total match count pagination pages through, and per-partition timings.
type Response = search.Response

// Stats summarizes a catalog.
type Stats struct {
	// Files is the number of files indexed.
	Files int
	// Terms is the exact number of distinct terms across all partitions
	// (a term present in several partitions counts once).
	Terms int
	// Postings is the number of (term, file) pairs.
	Postings int64
	// Skipped is the number of unreadable files that were skipped.
	Skipped int
}

// Catalog is a built or loaded index, a set of hash-routed document
// partitions, ready to answer queries. A directory whose segments are not
// routed by shard.ShardFor is refused at open, so an update changes a
// file's own partition and no other.
//
// A catalog is safe for concurrent Query calls, and Query is safe
// against a concurrent Update/Apply: incremental updates commit under the
// engine's maintenance lock, so a query sees the catalog either before or
// after a changeset, never mid-apply.
type Catalog struct {
	result *core.Result
	engine *search.Engine
	// lazy, when non-nil, is the open segment-reader set behind a catalog
	// opened with OpenDir or OpenDirShards. Such a catalog is read-only:
	// the mutating surface (SaveDir, Apply, Update) returns ErrReadOnly,
	// and Close must be called to release the mappings.
	lazy *shard.LazySet
	// workers sizes an update's re-extraction pool: the extractor count
	// the options asked for, which the build itself caps at its file
	// count. Guarded by updateMu.
	workers int
	// updateMu serializes Update/Apply against each other; the engine's
	// read-write lock already serializes them against queries.
	updateMu sync.Mutex
}

// ErrReadOnly is returned by the mutating methods of a lazily opened
// catalog. Re-index, or load the directory eagerly with LoadDir, to get a
// writable catalog.
var ErrReadOnly = errors.New("desksearch: lazily opened catalog is read-only (use LoadDir to load it eagerly)")

// IndexDir indexes the host directory dir: IndexFS over os.DirFS(dir).
func IndexDir(dir string, opt Options) (*Catalog, error) {
	return IndexFS(os.DirFS(dir), ".", opt)
}

// IndexFS indexes the regular files under root ("." for all) in fsys, any
// fs.FS: os.DirFS, fstest.MapFS, an archive. A symbolic link to a regular
// file is indexed with its target's content; a link to a directory, a
// named pipe, a device or a socket is not.
func IndexFS(fsys fs.FS, root string, opt Options) (*Catalog, error) {
	cfg, err := opt.coreConfig()
	if err != nil {
		return nil, err
	}
	res, err := core.Run(fsys, root, cfg)
	if err != nil {
		return nil, err
	}
	return newCatalog(res, cfg.Extractors), nil
}

func newCatalog(res *core.Result, workers int) *Catalog {
	return &Catalog{
		result:  res,
		engine:  search.NewEngine(res.Files, index.Partitions(res.Indexes())...),
		workers: workers,
	}
}

// partitionsLocked returns the catalog's query partitions. Callers must
// hold the engine's read or write lock (View, Maintain, or a Swap
// callback), which is what keeps result/lazy coherent.
func (c *Catalog) partitionsLocked() []index.Partition {
	if c.lazy != nil {
		return c.lazy.Partitions()
	}
	return index.Partitions(c.result.Indexes())
}

// Query evaluates a v2 search request. The query fans out over the
// partitions on the calling goroutine and the process's fixed set of
// fan-out workers; each partition keeps only its local top Limit+Offset
// candidates in a bounded heap, and the per-partition ranked lists are
// merged just until the page is full; only the page gets paths and terms,
// so a Limit-10 query does a fraction of the work an unlimited one does. ctx
// cancellation is honored between evaluation steps: a canceled context
// aborts in-flight partitions and returns ctx.Err().
func (c *Catalog) Query(ctx context.Context, q Query) (*Response, error) {
	req, err := q.request()
	if err != nil {
		return nil, err
	}
	return c.engine.Query(ctx, req)
}

// DocFreqs computes the catalog's local document-frequency vector for q:
// the live-document and token counts plus, per positive query term and
// per scoring prefix operator, the number of this catalog's documents
// matching it. It is the statistics half of distributed BM25: a broker
// gathers every worker catalog's vector, sums them with DocFreqs.Add
// (worker catalogs are document-disjoint, so frequencies add exactly),
// and passes the total back through Query.GlobalDF — after which every
// worker scores with corpus-global statistics and the merged result is
// bit-identical to a single-node evaluation. Every Query, whatever its
// ranking, reports the same local vector in Response.DF, read under the
// evaluation's own view of the index, so a broker can keep sums from
// earlier answers and check them against the next instead of asking
// first. Term frequencies are
// answered from the term dictionaries (no posting blocks are decoded);
// prefix operators are expanded under the same cap as evaluation, so an
// over-broad prefix fails here first.
func (c *Catalog) DocFreqs(ctx context.Context, q Query) (*DocFreqs, error) {
	q, err := q.Normalize()
	if err != nil {
		return nil, err
	}
	return c.engine.DocFreqs(ctx, q.Expr, q.MaxPrefixTerms)
}

// Suggest returns up to n indexed terms starting with prefix — the
// autocomplete surface behind the server's /suggest endpoint — ranked by
// descending document frequency, ties broken alphabetically. The prefix
// normalizes like query text (a trailing '*' is tolerated, so "Repor*"
// suggests like "repor") and must yield a single term. n <= 0 applies a
// default of 10. The ranking is TopTerms' over the terms the prefix
// starts. Suggestions reflect the catalog's committed state: the call
// takes the same read lock queries do.
func (c *Catalog) Suggest(ctx context.Context, prefix string, n int) ([]Suggestion, error) {
	return c.engine.Suggest(ctx, prefix, n)
}

// Stats summarizes the catalog. Files counts live files only: a file
// deleted by an incremental update keeps its FileID slot as a tombstone
// but no longer counts. Terms is exact for every catalog shape: distinct
// terms are counted once across partitions, by the merge of their
// ascending dictionaries TopTerms also uses, not summed per partition.
// Postings sum per partition (partitions are document-disjoint) and, like
// Terms, come from the dictionaries alone: no posting block is decoded.
func (c *Catalog) Stats() Stats {
	var out Stats
	c.engine.View(func() {
		parts := c.partitionsLocked()
		out = Stats{
			Files:   c.result.Files.LiveCount(),
			Terms:   index.DistinctTermsAcross(parts),
			Skipped: len(c.result.SkippedFiles),
		}
		for _, p := range parts {
			out.Postings += p.NumPostings()
		}
	})
	return out
}

// Files counts the catalog's live files, Stats' Files without the
// dictionary walks Stats makes for its other fields.
func (c *Catalog) Files() (n int) {
	c.engine.View(func() { n = c.result.Files.LiveCount() })
	return n
}

// Indices reports how many partitions answer queries: the shard count of
// the build (Options.Shards, or with Shards 0 one per updater) or of the
// directory opened, or for a subset catalog (OpenDirShards) the shards it
// serves.
func (c *Catalog) Indices() int { return c.engine.Indices() }

// Generation returns the catalog's mutation generation: a counter that
// advances every time an update commits (Apply, Update, UpdateDir) or the
// contents are replaced (Swap). Queries observing the same generation ran
// against the same index state: a server reports it with every answer
// and keys its /stats memo on it, and a broker sums its workers'.
func (c *Catalog) Generation() uint64 { return c.engine.Generation() }

// Swap atomically replaces c's contents with other's — the full-reload
// counterpart of the incremental Update, used by long-running servers to
// rebuild a catalog in the background and cut queries over in one step.
// In-flight queries finish against the old contents; queries arriving
// after Swap returns see only the new ones, at a new generation. other
// must not be used afterwards: c owns its contents.
func (c *Catalog) Swap(other *Catalog) {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	res, lz := other.result, other.lazy
	c.workers = other.workers
	var old *shard.LazySet
	c.engine.Swap(res.Files, other.partitionsLocked(), other.engine.ShardIDs(), func() {
		old = c.lazy
		c.result = res
		c.lazy = lz
	})
	// The swap drained in-flight queries (it holds the engine's write
	// lock), so a displaced lazy set has no remaining readers and its
	// mappings can go. Lists already handed out stay valid — decoding
	// copies out of the mapping.
	if old != nil {
		old.Close()
	}
}

// Close releases the file mappings and handles of a lazily opened catalog
// after draining in-flight queries; the catalog must not be queried
// afterwards. On eagerly loaded catalogs it is a no-op, so callers can
// defer it unconditionally.
func (c *Catalog) Close() error {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	if c.lazy == nil { // writes to c.lazy all hold updateMu
		return nil
	}
	var err error
	c.engine.Maintain(func() {
		err = c.lazy.Close()
		c.lazy = nil
	})
	return err
}

// Lazy reports whether the catalog was opened lazily (posting data served
// from segment files on demand) rather than materialized on the heap.
func (c *Catalog) Lazy() bool {
	var lazy bool
	c.engine.View(func() { lazy = c.lazy != nil })
	return lazy
}

// PartitionBytes returns each partition's estimated resident heap bytes,
// in partition order: full posting storage for heap partitions, dictionary
// plus cached blocks for lazy ones. It is an estimate for observability
// (the server's /stats), not an accounting guarantee.
func (c *Catalog) PartitionBytes() []int64 {
	return c.engine.ResidentBytes()
}

// PartitionIDs returns each query partition's global identity, in
// partition order: for a catalog opened over a shard subset
// (OpenDirShards) the directory-wide shard numbers, and the identity
// 0..Indices()-1 for every whole catalog. Response.Partitions indexes are
// local; this is the mapping a distributed worker applies before
// reporting per-partition statistics to its broker, so the broker's view
// names every shard consistently across workers.
func (c *Catalog) PartitionIDs() []int { return c.engine.ShardIDs() }

// TotalShards returns the shard count of the whole catalog, which for a
// subset catalog (OpenDirShards) exceeds Indices — the local count. Every
// other catalog reports Indices.
func (c *Catalog) TotalShards() int {
	var n int
	c.engine.View(func() {
		if c.lazy != nil {
			n = c.lazy.TotalShards()
		} else {
			n = c.result.Set.Len()
		}
	})
	return n
}

// BlockCache reports the posting-block cache of a lazily opened catalog:
// its byte budget and current estimated usage. ok is false for eager
// catalogs, which have no block cache.
func (c *Catalog) BlockCache() (budget, used int64, ok bool) {
	c.engine.View(func() {
		if c.lazy == nil {
			return
		}
		cache := c.lazy.Cache()
		budget, used, ok = cache.MaxBytes(), cache.Bytes(), true
	})
	return budget, used, ok
}

// SegmentCorruptions counts the posting-block reads of a lazily opened
// catalog that failed verification since it was opened; every query that
// ran into one failed with ErrSegmentCorrupt. Always 0 for eager
// catalogs, which verify everything at load.
func (c *Catalog) SegmentCorruptions() uint64 {
	var n uint64
	c.engine.View(func() {
		if c.lazy != nil {
			n = c.lazy.Corruptions()
		}
	})
	return n
}

// Positional reports whether the catalog carries token positions — the
// capability phrase queries and snippets need. Workers surface it through
// /internal/meta so a broker can reject positional queries up front when
// any worker lacks positions.
func (c *Catalog) Positional() bool {
	var on bool
	c.engine.View(func() { on = c.result.Config.Extract.Positions })
	return on
}

// Timings returns the pipeline phase durations of the build, in seconds:
// filename generation, extraction+update, join, shard and total. join and
// shard are always 0 — no build joins, and every build routes term blocks
// to their shards inside extraction+update — and stay in the signature
// for existing callers.
func (c *Catalog) Timings() (filenameGen, extractUpdate, join, shard, total float64) {
	var t core.Timings
	c.engine.View(func() {
		t = c.result.Timings
	})
	return t.FilenameGen.Seconds(), t.ExtractUpdate.Seconds(), 0, 0, t.Total.Seconds()
}

// TermCount is a term with the number of files containing it.
type TermCount = index.TermCount

// TopTerms returns the catalog's n most frequent terms by document count.
// Partitions are document-disjoint, so document frequencies add: one merge
// of the partitions' ascending dictionary walks sums each term's counts,
// and only the n best terms met so far are kept, in order. No index is
// cloned or joined.
func (c *Catalog) TopTerms(n int) []TermCount {
	if n <= 0 {
		return nil
	}
	var out []TermCount
	c.engine.View(func() { out = index.TopTermsAcross(c.partitionsLocked(), "", n) })
	return out
}

// loadedOptions resolves the options of a catalog read from disk, whose
// build options were not persisted — the caller's when given, defaults
// otherwise — and the pipeline configuration they imply.
func loadedOptions(opts []Options) (Options, core.Config, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	cfg, err := o.coreConfig()
	return o, cfg, err
}

// SaveDir writes the catalog under dir — the one persisted form: a
// checksummed manifest plus one segment file per shard, written in
// parallel. Every catalog's partitions are its shards, whatever
// Options.Shards was. Saved back to the directory it was last saved to or
// loaded from, the catalog rewrites only the segments an update dirtied
// (DirtySegments) plus the manifest.
func (c *Catalog) SaveDir(dir string) error {
	// updateMu keeps two saves from staging the same temporary files; the
	// engine's read lock keeps the indices stable while segments stream
	// out (updates commit under the write lock).
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	var err error
	c.engine.View(func() {
		if c.lazy != nil {
			err = ErrReadOnly
			return
		}
		err = shard.SaveDir(dir, c.result.Set)
	})
	return err
}

// LoadDir reads a sharded catalog previously written by SaveDir, loading
// and verifying all segments in parallel. Queries fan out over the loaded
// shards. A loaded catalog remembers its directory: after an incremental
// Update, SaveDir back to it rewrites only the segments the update
// dirtied.
func LoadDir(dir string, opt ...Options) (*Catalog, error) {
	_, cfg, err := loadedOptions(opt)
	if err != nil {
		return nil, err
	}
	set, err := shard.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	// Positional-ness is persisted in the segments' flags byte and is
	// authoritative in both directions: a loaded positional catalog keeps
	// re-extracting positionally without the caller restating the option,
	// and Options.Positions cannot turn a non-positional catalog
	// positional — only re-extracted files would ever carry positions,
	// leaving the index half-positional. Rebuild to change it.
	cfg.Extract.Positions = set.Positional()
	return newCatalog(&core.Result{Config: cfg, Files: set.Files(), Set: set}, cfg.Extractors), nil
}

// OpenDir opens a sharded catalog directory lazily: only the manifest and
// each segment's term dictionary are read up front — never the posting
// data — so cold start is proportional to the vocabulary, not the corpus,
// and the segments' dictionary walks are split over the cores through the
// same fan-out queries use (a one-segment directory gains nothing from
// that).
// Queries then page posting blocks in on demand (memory-mapped on linux,
// positioned reads elsewhere), verify them against their per-block
// checksums, and keep hot terms in a bounded cache shared across shards.
// Every query answers bit-identically to the same catalog loaded with
// LoadDir.
//
// The returned catalog is read-only — SaveDir, Apply, and Update return
// ErrReadOnly — and holds open file mappings until Close (Swap to a
// replacement catalog also releases them, which is how dsearchd reloads).
func OpenDir(dir string, opt ...Options) (*Catalog, error) {
	return OpenDirShards(dir, nil, opt...)
}

// OpenDirShards is OpenDir restricted to a subset of the directory's
// shards — the distributed worker's open path (dsearchd -worker
// -shards=0,2): only the named segments' dictionaries are read and
// mapped, so the worker's startup cost and memory footprint track its
// share of the corpus, not the whole directory. shardIDs lists global
// shard numbers; nil or empty opens every shard, identically to OpenDir.
// Any saved directory opens this way: each shard answers for the
// documents it holds, and the worker serving shard 0 also answers for the
// term-free files.
//
// The catalog answers queries exactly as the full directory would for
// its own documents: merged across a disjoint worker set (and, for BM25,
// scored via the Query.GlobalDF protocol), responses are bit-identical
// to a single-node catalog over the whole directory.
func OpenDirShards(dir string, shardIDs []int, opt ...Options) (*Catalog, error) {
	o, cfg, err := loadedOptions(opt)
	if err != nil {
		return nil, err
	}
	set, err := shard.OpenDirShards(dir, o.BlockCacheBytes, shardIDs)
	if err != nil {
		return nil, err
	}
	cfg.Extract.Positions = set.Positional()
	res := &core.Result{Config: cfg, Files: set.Files()}
	engine := search.NewSubsetEngine(set.Files(), set.ShardIDs(), set.Partitions()...)
	return &Catalog{result: res, engine: engine, lazy: set, workers: cfg.Extractors}, nil
}

// Changeset is a tree diff computed by Catalog.Diff and consumed by
// Catalog.Apply: the files added, modified, and deleted since the catalog
// last matched the tree.
type Changeset = delta.Changeset

// UpdateStats summarizes an applied incremental update.
type UpdateStats struct {
	// Stats counts the files in the changeset (Added, Modified, Deleted)
	// and the (term, file) pairs the update dropped and inserted
	// (PostingsRemoved, PostingsAdded).
	delta.Stats
	// SkippedFiles counts changed files that could not be re-extracted;
	// like the batch pipeline, they stay registered without postings.
	SkippedFiles int
}

// Diff walks fsys from root and returns the changes since the catalog was
// built or last updated, without applying anything. Size and modification
// stamps decide whether a file changed; nothing is read or re-extracted.
func (c *Catalog) Diff(fsys fs.FS, root string) (*Changeset, error) {
	var cs *Changeset
	var err error
	c.engine.View(func() {
		cs, err = delta.Diff(fsys, root, c.result.Files)
	})
	return cs, err
}

// Apply re-extracts the changeset's added and modified files in parallel
// and commits the changes to the catalog in place: deleted files are
// tombstoned and their postings dropped, modified files are re-indexed,
// and new files register fresh FileIDs, each term block routed to its
// owning partition by the same FNV FileID split sharding uses. Queries are
// excluded only during the in-memory commit, not during extraction.
func (c *Catalog) Apply(fsys fs.FS, cs *Changeset) (UpdateStats, error) {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	if c.lazy != nil {
		return UpdateStats{}, ErrReadOnly
	}
	return c.applyLocked(fsys, cs)
}

// Update diffs the catalog against the tree under root and applies the
// resulting changeset: Diff followed by Apply in one step. It returns what
// changed; an up-to-date catalog returns zero stats and does no work.
func (c *Catalog) Update(fsys fs.FS, root string) (UpdateStats, error) {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	if c.lazy != nil {
		return UpdateStats{}, ErrReadOnly
	}
	cs, err := c.Diff(fsys, root)
	if err != nil {
		return UpdateStats{}, err
	}
	return c.applyLocked(fsys, cs)
}

// UpdateDir is Update over os.DirFS(dir), the incremental counterpart of
// IndexDir. A linked file changes when its target's size or time does.
func (c *Catalog) UpdateDir(dir string) (UpdateStats, error) {
	return c.Update(os.DirFS(dir), ".")
}

func (c *Catalog) applyLocked(fsys fs.FS, cs *Changeset) (UpdateStats, error) {
	if cs.Empty() {
		return UpdateStats{}, nil
	}
	plan := delta.Extract(fsys, cs, c.result.Config.Extract, c.workers)
	set := c.result.Set
	target := delta.Target{Files: c.result.Files, Partitions: set.Shards(), OnDirty: set.MarkDirty}
	var st delta.Stats
	c.engine.Maintain(func() {
		st = plan.Commit(target)
	})
	return UpdateStats{Stats: st, SkippedFiles: len(plan.Skipped)}, nil
}

// DirtySegments reports how many segment files the next SaveDir back to
// the catalog's directory would rewrite: the shards updates changed since
// it was saved or loaded, or every shard of a catalog never persisted. A
// lazily opened catalog, read-only, reports 0.
func (c *Catalog) DirtySegments() int {
	var n int
	c.engine.View(func() {
		if c.lazy == nil {
			n = c.result.Set.DirtyCount()
		}
	})
	return n
}
