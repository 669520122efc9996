package core

import (
	"fmt"
	"sync"
	"time"

	"desksearch/internal/distribute"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
	"desksearch/internal/vfs"
	"desksearch/internal/walk"
)

// Timings breaks a run down by pipeline phase.
type Timings struct {
	// FilenameGen is Stage 1: directory traversal (always sequential,
	// following the paper's measurement that it is 2–5 % of runtime).
	FilenameGen time.Duration
	// ExtractUpdate is the overlapped wall time of Stages 2 and 3.
	ExtractUpdate time.Duration
	// Join is the final replica merge (ReplicatedJoin only).
	Join time.Duration
	// Shard is always zero: a sharded run routes term blocks to their
	// shards inside ExtractUpdate, so no shard-set build follows Stage 3.
	// The field remains for callers that report the five phases.
	Shard time.Duration
	// Total is end-to-end wall time.
	Total time.Duration
}

// Skipped records a file the pipeline could not index. Desktop search
// treats unreadable files as skippable — a user's corpus always contains a
// few — but reports them.
type Skipped struct {
	Path string
	Err  error
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Implementation and Config echo the run parameters (normalized).
	Implementation Implementation
	Config         Config
	// Files maps FileIDs to paths.
	Files *index.FileTable
	// Index is the single resulting index. For ReplicatedSearch it is nil
	// when more than one replica was built — use Replicas. For sharded
	// runs (Config.Shards > 0) it is nil — use Shards.
	Index *index.Index
	// Replicas holds the unjoined indices of ReplicatedSearch.
	Replicas []*index.Index
	// Shards is the document-sharded partition set of the run's output
	// when Config.Shards > 0.
	Shards *shard.Set
	// Timings is the phase breakdown.
	Timings Timings
	// SkippedFiles lists files that could not be read or extracted.
	SkippedFiles []Skipped
}

// Indexes returns the result's indices: the shards of a sharded run, the
// joined/single index, or the replicas for ReplicatedSearch.
func (r *Result) Indexes() []*index.Index {
	if r.Shards != nil {
		return r.Shards.Shards()
	}
	if r.Index != nil {
		return []*index.Index{r.Index}
	}
	return r.Replicas
}

// Stats aggregates index statistics across the result's indices.
func (r *Result) Stats() index.Stats {
	var s index.Stats
	for _, ix := range r.Indexes() {
		st := ix.Stats()
		s.Terms += st.Terms // replicas may share terms; this is an upper bound
		s.Postings += st.Postings
	}
	return s
}

// job is one unit of Stage 2 work: a file and its pre-assigned ID.
type job struct {
	ref walk.FileRef
	id  postings.FileID
}

// markPositional flags a freshly created index as positional when the run
// extracts token positions, so even an index that ends up empty (or a shard
// that receives no postings) persists — and later updates — positionally.
func markPositional(cfg Config, ix *index.Index) {
	if cfg.Extract.Positions {
		ix.SetPositional()
	}
}

// Run executes the configured pipeline over the files under root in fsys.
func Run(fsys vfs.FS, root string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()

	res := &Result{Implementation: cfg.Implementation, Config: cfg}
	startTotal := time.Now()

	// Stage 1: filename generation — one thread, completing before
	// extraction starts (the paper's design decision).
	files, err := walk.List(fsys, root)
	if err != nil {
		return nil, fmt.Errorf("core: filename generation: %w", err)
	}
	table := index.NewFileTable()
	jobs := make([]job, len(files))
	for i, f := range files {
		jobs[i] = job{ref: f, id: table.Add(f.Path, f.Size, f.ModTime)}
	}
	res.Files = table
	res.Timings.FilenameGen = time.Since(startTotal)

	// Stages 2+3. A sharded run's sinks are its shards — every term block
	// is hash-routed as it crosses the Stage 2→3 boundary — so whichever
	// implementation runs, nothing is joined or re-split afterwards.
	start23 := time.Now()
	var replicas []*index.Index
	switch {
	case cfg.Shards > 0:
		res.Shards = shard.New(table, runSharded(fsys, cfg, jobs, res))
	case cfg.Implementation == Sequential:
		res.Index = index.New(1 << 12)
		markPositional(cfg, res.Index)
		runDirect(fsys, cfg, jobs, directSink{ix: res.Index}, res)
	case cfg.Implementation == SharedIndex:
		shared := index.NewShared(1 << 12)
		markPositional(cfg, shared.Unwrap())
		runPipeline(fsys, cfg, jobs, func(int) blockSink { return shared }, res)
		res.Index = shared.Unwrap()
	default: // ReplicatedJoin, ReplicatedSearch
		replicas = make([]*index.Index, cfg.Replicas())
		for i := range replicas {
			replicas[i] = index.New(1 << 10)
			markPositional(cfg, replicas[i])
		}
		runPipeline(fsys, cfg, jobs, func(i int) blockSink { return directSink{ix: replicas[i]} }, res)
	}
	res.Timings.ExtractUpdate = time.Since(start23)

	switch {
	case replicas == nil:
	case cfg.Implementation == ReplicatedJoin:
		startJoin := time.Now()
		if cfg.Joiners > 1 {
			res.Index = index.ParallelJoin(replicas, cfg.Joiners)
		} else {
			res.Index = index.JoinAll(replicas)
		}
		res.Timings.Join = time.Since(startJoin)
	case len(replicas) == 1:
		res.Index = replicas[0]
	default:
		res.Replicas = replicas
	}
	res.Timings.Total = time.Since(startTotal)
	return res, nil
}

// blockSink consumes term blocks. index.Shared is one (lock per block);
// directSink wraps an unshared index for single-owner use.
type blockSink interface {
	AddBlock(id postings.FileID, terms []string, counts []uint32)
	AddBlockPositional(id postings.FileID, terms []string, positions [][]uint32)
}

type directSink struct{ ix *index.Index }

func (d directSink) AddBlock(id postings.FileID, terms []string, counts []uint32) {
	d.ix.AddBlock(id, terms, counts)
}

func (d directSink) AddBlockPositional(id postings.FileID, terms []string, positions [][]uint32) {
	d.ix.AddBlockPositional(id, terms, positions)
}

// feed routes a term block to the sink's positional or plain insertion
// path, depending on what the extractor recorded.
func feed(sink blockSink, block extract.TermBlock) {
	if block.Positions != nil {
		sink.AddBlockPositional(block.File, block.Terms, block.Positions)
		return
	}
	sink.AddBlock(block.File, block.Terms, block.Counts)
}

// shardRouter is the sink of a sharded run: it hands each term block to the
// sink of its file's shard.
type shardRouter []blockSink

func (r shardRouter) AddBlock(id postings.FileID, terms []string, counts []uint32) {
	r[shard.ShardFor(id, len(r))].AddBlock(id, terms, counts)
}

func (r shardRouter) AddBlockPositional(id postings.FileID, terms []string, positions [][]uint32) {
	r[shard.ShardFor(id, len(r))].AddBlockPositional(id, terms, positions)
}

// runSharded executes Stages 2 and 3 with the cfg.Shards shard indices as
// the sinks and returns them. Where several goroutines can feed one shard —
// SharedIndex, or extractors updating directly — each shard is locked per
// block (Implementation 1 striped cfg.Shards ways). Sequential's one thread
// and the updaters of the replicated designs, which runPipeline feeds
// through per-updater lanes so that every shard has one owner, insert
// without locks (Implementation 3 with a routing rule).
func runSharded(fsys vfs.FS, cfg Config, jobs []job, res *Result) []*index.Index {
	shards := make([]*index.Index, cfg.Shards)
	router := make(shardRouter, cfg.Shards)
	locked := cfg.Implementation == SharedIndex || (cfg.Updaters == 0 && cfg.Extractors > 1)
	for i := range shards {
		if locked {
			shared := index.NewShared(1 << 10)
			shards[i], router[i] = shared.Unwrap(), shared
		} else {
			shards[i] = index.New(1 << 10)
			router[i] = directSink{ix: shards[i]}
		}
		markPositional(cfg, shards[i])
	}
	if cfg.Implementation == Sequential {
		runDirect(fsys, cfg, jobs, router, res)
	} else {
		runPipeline(fsys, cfg, jobs, func(int) blockSink { return router }, res)
	}
	return shards
}

// runDirect executes jobs on the calling goroutine (the sequential
// baseline).
func runDirect(fsys vfs.FS, cfg Config, jobs []job, sink blockSink, res *Result) {
	ex := extract.New(fsys, cfg.Extract)
	for _, j := range jobs {
		block, err := ex.File(j.ref.Path, j.id)
		if err != nil {
			res.SkippedFiles = append(res.SkippedFiles, Skipped{Path: j.ref.Path, Err: err})
			continue
		}
		res.Files.SetTokens(block.File, block.Tokens)
		feed(sink, block)
	}
}

// runPipeline executes Stages 2 and 3 with cfg.Extractors extraction
// goroutines and, when cfg.Updaters > 0, separate updater goroutines fed
// through a bounded channel. sinkFor(i) returns the block sink for updater
// slot i (or extractor slot i when there are no updaters).
func runPipeline(fsys vfs.FS, cfg Config, jobs []job, sinkFor func(int) blockSink, res *Result) {
	var (
		skippedMu sync.Mutex
	)
	skip := func(path string, err error) {
		skippedMu.Lock()
		res.SkippedFiles = append(res.SkippedFiles, Skipped{Path: path, Err: err})
		skippedMu.Unlock()
	}

	// nextJob yields each extractor's work: a static private vector
	// (round-robin/by-size/chunked) or a stealing pool.
	var jobSource func(worker int) func() (job, bool)
	if cfg.WorkStealing {
		refs := make([]walk.FileRef, len(jobs))
		idByPath := make(map[string]postings.FileID, len(jobs))
		for i, j := range jobs {
			refs[i] = j.ref
			idByPath[j.ref.Path] = j.id
		}
		pool := distribute.NewStealingPool(refs, cfg.Extractors)
		jobSource = func(worker int) func() (job, bool) {
			return func() (job, bool) {
				ref, ok := pool.Next(worker)
				if !ok {
					return job{}, false
				}
				return job{ref: ref, id: idByPath[ref.Path]}, true
			}
		}
	} else {
		parts := partitionJobs(jobs, cfg.Extractors, cfg.Distribution)
		jobSource = func(worker int) func() (job, bool) {
			i := 0
			part := parts[worker]
			return func() (job, bool) {
				if i >= len(part) {
					return job{}, false
				}
				j := part[i]
				i++
				return j, true
			}
		}
	}

	if cfg.Updaters == 0 {
		// Extractors update their sink directly: sink i belongs to
		// extractor i (replica designs) or is the shared index (Impl 1).
		var wg sync.WaitGroup
		for w := 0; w < cfg.Extractors; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ex := extract.New(fsys, cfg.Extract)
				sink := sinkFor(replicaSlot(cfg, w, -1))
				next := jobSource(w)
				for {
					j, ok := next()
					if !ok {
						return
					}
					block, err := ex.File(j.ref.Path, j.id)
					if err != nil {
						skip(j.ref.Path, err)
						continue
					}
					// Each file is extracted exactly once, so concurrent
					// extractors write disjoint token-length slots.
					res.Files.SetTokens(block.File, block.Tokens)
					feed(sink, block)
				}
			}(w)
		}
		wg.Wait()
		return
	}

	// Extractors feed updaters through a bounded buffer: one channel every
	// updater drains or — on a sharded run of a replicated design — one lane
	// per updater, with updater u the single owner of the shards
	// s ≡ u (mod y). The lanes split cfg.Buffer between them.
	n := 1
	if cfg.Shards > 0 && cfg.Implementation != SharedIndex {
		n = cfg.Updaters
	}
	lanes := make([]chan extract.TermBlock, n)
	for i := range lanes {
		lanes[i] = make(chan extract.TermBlock, (cfg.Buffer+n-1)/n)
	}
	var extractors sync.WaitGroup
	for w := 0; w < cfg.Extractors; w++ {
		extractors.Add(1)
		go func(w int) {
			defer extractors.Done()
			ex := extract.New(fsys, cfg.Extract)
			next := jobSource(w)
			for {
				j, ok := next()
				if !ok {
					return
				}
				block, err := ex.File(j.ref.Path, j.id)
				if err != nil {
					skip(j.ref.Path, err)
					continue
				}
				res.Files.SetTokens(block.File, block.Tokens)
				lanes[shard.ShardFor(block.File, cfg.Shards)%n] <- block
			}
		}(w)
	}

	var updaters sync.WaitGroup
	for u := 0; u < cfg.Updaters; u++ {
		updaters.Add(1)
		go func(u int) {
			defer updaters.Done()
			sink := sinkFor(replicaSlot(cfg, -1, u))
			for block := range lanes[u%n] {
				feed(sink, block)
			}
		}(u)
	}

	extractors.Wait()
	for _, lane := range lanes {
		close(lane)
	}
	updaters.Wait()
}

// replicaSlot maps a worker to its sink slot: with updaters, slot = updater
// index; without, slot = extractor index. SharedIndex ignores the slot.
func replicaSlot(cfg Config, extractor, updater int) int {
	if cfg.Updaters > 0 {
		return updater
	}
	return extractor
}

// partitionJobs splits jobs into k private vectors with the configured
// strategy, preserving each job's pre-assigned FileID.
func partitionJobs(jobs []job, k int, strategy distribute.Strategy) [][]job {
	refs := make([]walk.FileRef, len(jobs))
	idByPath := make(map[string]postings.FileID, len(jobs))
	for i, j := range jobs {
		refs[i] = j.ref
		idByPath[j.ref.Path] = j.id
	}
	refParts := distribute.Partition(refs, k, strategy)
	parts := make([][]job, len(refParts))
	for w, rp := range refParts {
		parts[w] = make([]job, len(rp))
		for i, ref := range rp {
			parts[w][i] = job{ref: ref, id: idByPath[ref.Path]}
		}
	}
	return parts
}
