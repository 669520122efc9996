package desksearch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"desksearch/internal/core"
	"desksearch/internal/delta"
	"desksearch/internal/distribute"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/search"
	"desksearch/internal/shard"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

// Implementation selects one of the paper's parallel designs.
type Implementation int

const (
	// Auto picks ReplicatedSearch with a machine-sized thread
	// configuration — the paper's overall winner.
	Auto Implementation = iota
	// Sequential runs single-threaded (the paper's baseline).
	Sequential
	// SharedIndex is the paper's Implementation 1.
	SharedIndex
	// ReplicatedJoin is the paper's Implementation 2.
	ReplicatedJoin
	// ReplicatedSearch is the paper's Implementation 3.
	ReplicatedSearch
)

// Options configure index construction. The zero value auto-configures for
// the host machine.
type Options struct {
	// Implementation selects the parallel design.
	Implementation Implementation
	// Extractors, Updaters, and Joiners are the paper's (x, y, z) thread
	// tuple. All zero means auto-size from the CPU count.
	Extractors, Updaters, Joiners int
	// Formats enables document-format extraction (HTML, WP markup) before
	// tokenization.
	Formats bool
	// Stopwords, when non-empty, excludes the listed words from the index.
	Stopwords []string
	// MinTermLen drops terms shorter than this many bytes (0 = keep all).
	MinTermLen int
	// Shards, when positive, partitions the catalog into that many
	// document shards, searched with parallel fan-out and saved with
	// SaveDir as a manifest plus one segment file per shard.
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
		{"Joiners", o.Joiners},
		{"MinTermLen", o.MinTermLen},
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
		Extractors:   o.Extractors,
		Updaters:     o.Updaters,
		Joiners:      o.Joiners,
		Shards:       o.Shards,
		Distribution: distribute.RoundRobin,
	}
	tok := tokenize.Default
	if o.MinTermLen > 0 {
		tok.MinLen = o.MinTermLen
	}
	if len(o.Stopwords) > 0 {
		tok.Stopwords = tokenize.NewStopSet(o.Stopwords)
	}
	cfg.Extract = extract.Options{Tokenize: tok, Formats: o.Formats, Positions: o.Positions}

	switch o.Implementation {
	case Auto:
		cfg.Implementation = core.ReplicatedSearch
		if cfg.Extractors == 0 {
			auto := core.Default(core.ReplicatedSearch, runtime.NumCPU())
			cfg.Extractors, cfg.Updaters = auto.Extractors, auto.Updaters
			if cfg.Updaters < 2 {
				cfg.Updaters = 2 // replication needs at least two replicas
			}
		}
	case Sequential:
		cfg.Implementation = core.Sequential
	case SharedIndex:
		cfg.Implementation = core.SharedIndex
	case ReplicatedJoin:
		cfg.Implementation = core.ReplicatedJoin
	case ReplicatedSearch:
		cfg.Implementation = core.ReplicatedSearch
	default:
		return core.Config{}, fmt.Errorf("desksearch: unknown implementation %d", int(o.Implementation))
	}
	if cfg.Implementation != core.Sequential && cfg.Extractors == 0 {
		auto := core.Default(cfg.Implementation, runtime.NumCPU())
		cfg.Extractors, cfg.Updaters = auto.Extractors, auto.Updaters
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
// case-insensitively) to its Ranking value. The pre-v3 integer forms ("0",
// "1") still parse, so clients built against the numeric wire format keep
// working; anything else is an error naming the accepted values.
func ParseRanking(s string) (Ranking, error) {
	switch strings.ToLower(s) {
	case "count", "coordination":
		return RankCount, nil
	case "tf":
		return RankTF, nil
	case "bm25":
		return RankBM25, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		switch r := Ranking(n); r {
		case RankCount, RankTF, RankBM25:
			return r, nil
		}
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
	// partition retains only its local top Limit+Offset hits in a bounded
	// heap instead of materializing and sorting its entire hit list.
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
	// evaluation and DocFreqs, and is part of the cache key — the same
	// text under a different cap is a different request.
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
	// Ignored by the other rankings; not part of the cache key (transports
	// attach it per request, after normalization).
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
// unknown ranking, snippets without a limit) are rejected here, at the
// edge — before they can occupy a cache slot or cross a network hop.
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

// CacheKey returns the canonical key identifying a normalized request (Expr
// set): the parsed expression rendered in canonical form — so "cat  dog",
// "cat AND dog", and "(cat) dog" collapse to one key — joined with the
// retrieval controls that change the response. Two requests with equal
// keys evaluated at the same catalog generation produce identical
// responses, which is what makes the key safe to cache on.
func (q Query) CacheKey() string {
	// PathPrefix is the one free-form field (an HTTP ?prefix= parameter can
	// carry any byte, the \x00 field separator included), so it is
	// length-prefixed AND kept last: the key stays injective in its fields
	// no matter what the prefix contains, and no future field appended
	// after the fixed-form ones can be impersonated by a crafted prefix.
	// The ranking is keyed by wire name, not integer, so the key survives
	// any renumbering of the enum.
	return fmt.Sprintf("%s\x00limit=%d\x00offset=%d\x00rank=%s\x00snippets=%t\x00maxprefix=%d\x00prefix=%d:%s",
		q.Expr.String(), q.Limit, q.Offset, q.Ranking, q.Snippets, q.MaxPrefixTerms, len(q.PathPrefix), q.PathPrefix)
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
// of files containing it.
type Suggestion = search.Suggestion

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

// Catalog is a built index (or replica set) ready to answer queries.
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
	// updateMu serializes Update/Apply against each other; the engine's
	// read-write lock already serializes them against queries.
	updateMu sync.Mutex
}

// ErrReadOnly is returned by the mutating methods of a lazily opened
// catalog. Re-index, or load the directory eagerly with LoadDir, to get a
// writable catalog.
var ErrReadOnly = errors.New("desksearch: lazily opened catalog is read-only (use LoadDir to load it eagerly)")

// IndexDir indexes every file under dir on the host filesystem.
func IndexDir(dir string, opt Options) (*Catalog, error) {
	return IndexFS(vfs.NewOSFS(dir), ".", opt)
}

// IndexFS indexes every file under root in the given filesystem. It is the
// hook for in-memory corpora (internal/vfs.MemFS) used by the examples and
// benchmarks.
func IndexFS(fsys vfs.FS, root string, opt Options) (*Catalog, error) {
	cfg, err := opt.coreConfig()
	if err != nil {
		return nil, err
	}
	res, err := core.Run(fsys, root, cfg)
	if err != nil {
		return nil, err
	}
	return newCatalog(res), nil
}

func newCatalog(res *core.Result) *Catalog {
	return &Catalog{
		result: res,
		engine: search.NewEngine(res.Files, index.Partitions(res.Indexes())...),
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

// Query evaluates a v2 search request. The query fans out with one
// goroutine per partition; each keeps only its local top Limit+Offset
// hits in a bounded min-heap, and the per-partition ranked lists are
// merged just until the page is full — on multi-partition catalogs a
// Limit-10 query does a fraction of the work an unlimited one does. ctx
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
// bit-identical to a single-node evaluation. A BM25 Query reports the
// same local vector in Response.DF, read under the evaluation's own view
// of the index, so a broker that kept sums from earlier queries can check
// them against the answer instead of asking first. Term frequencies are
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
// default of 10. Suggestions reflect the catalog's committed state: the
// call takes the same read lock queries do.
func (c *Catalog) Suggest(ctx context.Context, prefix string, n int) ([]Suggestion, error) {
	return c.engine.Suggest(ctx, prefix, n)
}

// Stats summarizes the catalog. Files counts live files only: a file
// deleted by an incremental update keeps its FileID slot as a tombstone
// but no longer counts. Terms is exact for every catalog shape: distinct
// terms are counted once across partitions with the same single-pass
// counter TopTerms aggregates with, not summed per partition.
func (c *Catalog) Stats() Stats {
	var out Stats
	c.engine.View(func() {
		var postings int64
		if c.lazy != nil {
			postings = c.lazy.Stats().Postings
		} else {
			postings = c.result.Stats().Postings
		}
		out = Stats{
			Files:    c.result.Files.LiveCount(),
			Terms:    index.DistinctTermsAcross(c.partitionsLocked()),
			Postings: postings,
			Skipped:  len(c.result.SkippedFiles),
		}
	})
	return out
}

// Indices reports how many indices answer queries (1, or the replica or
// shard count for partitioned catalogs).
func (c *Catalog) Indices() int { return c.engine.Indices() }

// Generation returns the catalog's mutation generation: a counter that
// advances every time an update commits (Apply, Update, UpdateDir) or the
// contents are replaced (Swap). Queries observing the same generation ran
// against the same index state, so (generation, normalized query) is a
// safe result-cache key — a cache entry tagged with an older generation
// can never masquerade as current.
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
	parts := index.Partitions(res.Indexes())
	if lz != nil {
		parts = lz.Partitions()
	}
	var old *shard.LazySet
	c.engine.Swap(res.Files, parts, func() {
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

// Shards reports how many document shards the catalog holds; 0 for
// unsharded catalogs. A lazily opened directory is always sharded — its
// segment count is the answer.
func (c *Catalog) Shards() int {
	var n int
	c.engine.View(func() {
		switch {
		case c.lazy != nil:
			n = c.lazy.Len()
		case c.result.Shards != nil:
			n = c.result.Shards.Len()
		}
	})
	return n
}

// PartitionIDs returns each query partition's global identity, in
// partition order: for a catalog opened over a shard subset
// (OpenDirShards) the directory-wide shard numbers, and the identity
// 0..Indices()-1 for every whole catalog. Response.Partitions indexes are
// local; this is the mapping a distributed worker applies before
// reporting per-partition statistics to its broker, so the broker's view
// names every shard consistently across workers.
func (c *Catalog) PartitionIDs() []int {
	var out []int
	c.engine.View(func() {
		if c.lazy != nil {
			out = append(out, c.lazy.ShardIDs()...)
			return
		}
		// Counted here, not with Indices: that takes the engine's read lock
		// again, and a nested read lock deadlocks behind a waiting Maintain.
		out = make([]int, len(c.result.Indexes()))
		for i := range out {
			out[i] = i
		}
	})
	return out
}

// TotalShards returns the shard count of the directory behind the
// catalog, which for a subset catalog (OpenDirShards) exceeds Shards —
// the local count. Whole catalogs report their own shard count (0 when
// unsharded).
func (c *Catalog) TotalShards() int {
	var n int
	c.engine.View(func() {
		if c.lazy != nil {
			n = c.lazy.TotalShards()
		} else if c.result.Shards != nil {
			n = c.result.Shards.Len()
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
// filename generation, extraction+update, join, shard and total. shard is
// always 0 — a sharded build routes term blocks to their shards inside
// extraction+update — and stays in the signature for existing callers.
func (c *Catalog) Timings() (filenameGen, extractUpdate, join, shard, total float64) {
	var t core.Timings
	c.engine.View(func() {
		t = c.result.Timings
	})
	return t.FilenameGen.Seconds(), t.ExtractUpdate.Seconds(), t.Join.Seconds(),
		t.Shard.Seconds(), t.Total.Seconds()
}

// TermCount is a term with the number of files containing it.
type TermCount = index.TermCount

// TopTerms returns the catalog's n most frequent terms by document count.
// For partitioned catalogs (replicas or shards) the per-partition counts
// are summed directly — partitions are document-disjoint, so document
// frequencies add — without cloning or joining any index: the cost is one
// pass over each partition's term map plus a counter per distinct term,
// not a materialized copy of the whole catalog.
func (c *Catalog) TopTerms(n int) []TermCount {
	if n <= 0 {
		return nil
	}
	var out []TermCount
	c.engine.View(func() { out = index.TopTermsAcross(c.partitionsLocked(), n) })
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
	// coreConfig always bases extraction on tokenize.Default, so the zero
	// Options value yields the pipeline's default extraction.
	cfg, err := o.coreConfig()
	return o, cfg, err
}

// SaveDir writes the catalog under dir — the one persisted form: a
// checksummed manifest plus one segment file per shard, written in
// parallel. Catalogs built without Options.Shards are saved with their
// existing partitions as shards — replicas are document-disjoint, and a
// single index becomes a one-segment directory — so any catalog is saved
// this way, and none is ever joined to be saved.
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
		set := c.result.Shards
		if set == nil {
			set = shard.New(c.result.Files, c.result.Indexes())
		}
		err = shard.SaveDir(dir, set)
	})
	return err
}

// LoadDir reads a sharded catalog previously written by SaveDir, loading
// and verifying all segments in parallel. Queries fan out over the loaded
// shards. A loaded catalog remembers its directory: after an incremental
// Update, SaveDir back to it rewrites only the segments the update
// dirtied. Build options are not persisted, so a catalog built with
// non-default extraction (Formats, Stopwords, MinTermLen) must be given the
// same Options again here or updates will re-extract changed files
// differently than the original build did.
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
	return newCatalog(&core.Result{
		Implementation: core.ReplicatedSearch,
		Config:         cfg,
		Files:          set.Files(),
		Shards:         set,
	}), nil
}

// OpenDir opens a sharded catalog directory lazily: only the manifest and
// each segment's term dictionary are read up front — never the posting
// data — so cold start is proportional to the vocabulary, not the corpus.
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
//
// A true subset requires a hash-routed directory — any directory built
// with Options.Shards. Directories saved from pipeline replicas are not
// hash-routed and fail with a descriptive error (rebuild with a shard
// count), because without the routing the workers of one directory could
// not partition NOT-query responsibility among themselves.
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
	res := &core.Result{
		Implementation: core.ReplicatedSearch,
		Config:         cfg,
		Files:          set.Files(),
	}
	engine := search.NewEngine(set.Files(), set.Partitions()...)
	if set.Subset() {
		// A set holding only part of its directory complements NOT against
		// its own shards' share of the documents.
		engine.SetUniverses(set.Universes)
	}
	return &Catalog{result: res, engine: engine, lazy: set}, nil
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
func (c *Catalog) Diff(fsys vfs.FS, root string) (*Changeset, error) {
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
func (c *Catalog) Apply(fsys vfs.FS, cs *Changeset) (UpdateStats, error) {
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
func (c *Catalog) Update(fsys vfs.FS, root string) (UpdateStats, error) {
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

// UpdateDir is Update over a host directory, the incremental counterpart
// of IndexDir.
func (c *Catalog) UpdateDir(dir string) (UpdateStats, error) {
	return c.Update(vfs.NewOSFS(dir), ".")
}

func (c *Catalog) applyLocked(fsys vfs.FS, cs *Changeset) (UpdateStats, error) {
	if cs.Empty() {
		return UpdateStats{}, nil
	}
	plan := delta.Extract(fsys, cs, c.result.Config.Extract, c.updateWorkers())
	target := delta.Target{
		Files:      c.result.Files,
		Partitions: c.result.Indexes(),
	}
	if set := c.result.Shards; set != nil {
		target.OnDirty = set.MarkDirty
	}
	var st delta.Stats
	c.engine.Maintain(func() {
		st = plan.Commit(target)
	})
	return UpdateStats{Stats: st, SkippedFiles: len(plan.Skipped)}, nil
}

// updateWorkers sizes the re-extraction pool: the build's extractor count
// when known, otherwise one per spare CPU.
func (c *Catalog) updateWorkers() int {
	if x := c.result.Config.Extractors; x > 0 {
		return x
	}
	x := runtime.NumCPU() - 1
	if x < 1 {
		x = 1
	}
	return x
}

// DirtySegments reports how many segment files the next SaveDir back to
// the catalog's directory would rewrite. Catalogs never persisted with
// SaveDir (or not sharded) count every partition as dirty.
func (c *Catalog) DirtySegments() int {
	var n int
	c.engine.View(func() {
		if set := c.result.Shards; set != nil {
			n = set.DirtyCount()
		} else {
			n = len(c.result.Indexes())
		}
	})
	return n
}
