package core

import (
	"fmt"
	"io/fs"
	"sync"
	"time"

	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
)

// Timings breaks a run down by pipeline phase.
type Timings struct {
	// FilenameGen is Stage 1: directory traversal (always sequential,
	// following the paper's measurement that it is 2–5 % of runtime).
	FilenameGen time.Duration
	// ExtractUpdate is the overlapped wall time of Stages 2 and 3, which
	// route every term block to its partition as they go.
	ExtractUpdate time.Duration
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
	// Config echoes the tuple the run executed: normalized, with x capped
	// at the file count and y at the partition count.
	Config Config
	// Files maps FileIDs to paths.
	Files *index.FileTable
	// Set is the run's output, partitions over Files each holding exactly
	// the files shard.ShardFor routes to it: Config.Shards of them when
	// set, otherwise Config.Replicas.
	Set *shard.Set
	// Timings is the phase breakdown.
	Timings Timings
	// SkippedFiles lists files that could not be read or extracted.
	SkippedFiles []Skipped
}

// Indexes returns the partitions of the run's output.
func (r *Result) Indexes() []*index.Index { return r.Set.Shards() }

// FileRef names one file to index, with the size and modification time
// (Unix nanoseconds) the file table records and an update compares.
type FileRef struct {
	Path    string
	Size    int64
	ModTime int64
}

// ListFiles is Stage 1, filename generation: the regular files under root
// ("." for all) in fsys, depth-first, each directory's entries by name —
// the order that numbers FileIDs. A symbolic link is listed when fs.Stat
// says it names a regular file, with its target's size and time; a link to
// a directory is not followed, so the walk has no cycles. Named pipes,
// devices, sockets and entries that vanish mid-walk are not listed.
func ListFiles(fsys fs.FS, root string) ([]FileRef, error) {
	var out []FileRef
	err := fs.WalkDir(fsys, root, func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil && info.Mode()&fs.ModeSymlink != 0 {
			info, err = fs.Stat(fsys, name)
		}
		if err == nil && info.Mode().IsRegular() {
			out = append(out, FileRef{Path: name, Size: info.Size(), ModTime: info.ModTime().UnixNano()})
		}
		return nil
	})
	return out, err
}

// Run executes the configured pipeline over the files under root in fsys.
func Run(fsys fs.FS, root string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()

	res := &Result{}
	startTotal := time.Now()

	// Stage 1: filename generation — one thread, completing before
	// extraction starts (the paper's design decision).
	files, err := ListFiles(fsys, root)
	if err != nil {
		return nil, fmt.Errorf("core: filename generation: %w", err)
	}
	// A fresh table numbers the files in list order: file i has FileID i.
	res.Files = index.NewFileTable()
	for _, f := range files {
		res.Files.Add(f.Path, f.Size, f.ModTime)
	}
	res.Timings.FilenameGen = time.Since(startTotal)

	// An extractor past the file count gets no file, and an updater past
	// the partition count owns nothing: neither is started, and neither
	// gets a lane.
	n := cfg.Shards
	if n == 0 {
		n = cfg.Replicas()
	}
	cfg.Extractors = min(cfg.Extractors, max(len(files), 1))
	cfg.Updaters = min(cfg.Updaters, n)
	res.Config = cfg

	// Stages 2+3: every term block is hash-routed to its file's partition
	// as it crosses the Stage 2→3 boundary, so nothing is redistributed
	// or joined afterwards.
	start23 := time.Now()
	res.Set = shard.New(res.Files, runPipeline(fsys, cfg, files, n, res))
	res.Timings.ExtractUpdate = time.Since(start23)
	res.Timings.Total = time.Since(startTotal)
	return res, nil
}

// router holds a run's partition builders, in partition order.
type router []*index.Builder

// feed hands block to the builder of its file's partition.
func (r router) feed(block extract.TermBlock) {
	AddBlock(r[shard.ShardFor(block.File, len(r))], block)
}

// AddBlock hands block to b through the positional or plain insertion
// path, whichever the extractor recorded: the one dispatch from a term
// block to a builder, for a build and an update alike.
func AddBlock(b *index.Builder, block extract.TermBlock) {
	if block.Ends != nil {
		b.AddBlockPositional(block.File, block.Terms, block.Ends, block.Pos)
		return
	}
	b.AddBlock(block.File, block.Terms, block.Counts)
}

// runPipeline executes Stages 2 and 3 and returns the n partitions they
// filled. Every partition has one owner that logs its blocks without
// locks and builds it as soon as its input ends (Implementation 3 with a
// routing rule): the one extractor when cfg.Updaters is 0, otherwise
// updater u for the partitions s ≡ u (mod y), fed through a lane of its
// own.
//
// Stage 1's list is dealt round-robin: extractor w owns files w, w+x,
// w+2x, … of it, a private vector read with no synchronization at all.
func runPipeline(fsys fs.FS, cfg Config, files []FileRef, n int, res *Result) []*index.Index {
	r := make(router, n)
	for i := range r {
		r[i] = index.NewBuilder(cfg.Extract.Positions)
	}
	owners := max(cfg.Updaters, 1)
	parts := make([]*index.Index, n)
	// seal builds the partitions s ≡ owner (mod owners).
	seal := func(owner int) {
		for s := owner; s < n; s += owners {
			parts[s] = r[s].Index()
		}
	}

	var skippedMu sync.Mutex
	// dealt runs extractor w over its share of the files, handing every
	// block to out.
	dealt := func(w int, out func(extract.TermBlock)) {
		ex := extract.New(fsys, cfg.Extract)
		for i := w; i < len(files); i += cfg.Extractors {
			block, err := ex.File(files[i].Path, postings.FileID(i))
			if err != nil {
				skippedMu.Lock()
				res.SkippedFiles = append(res.SkippedFiles, Skipped{Path: files[i].Path, Err: err})
				skippedMu.Unlock()
				continue
			}
			// Each file is extracted exactly once, so concurrent
			// extractors write disjoint token-length slots.
			res.Files.SetTokens(block.File, block.Tokens)
			out(block)
		}
	}

	if cfg.Updaters == 0 {
		// The one extractor updates the partitions itself.
		dealt(0, r.feed)
		seal(0)
		return parts
	}
	// A lane feeds one owner, so a burst of blocks routed to it must fit
	// there or stall every extractor while the other owners idle: it
	// holds 32 blocks per extractor.
	lanes := make([]chan extract.TermBlock, owners)
	for i := range lanes {
		lanes[i] = make(chan extract.TermBlock, 32*cfg.Extractors)
	}
	var extractors sync.WaitGroup
	for w := 0; w < cfg.Extractors; w++ {
		extractors.Add(1)
		go func(w int) {
			defer extractors.Done()
			dealt(w, func(block extract.TermBlock) {
				lanes[shard.ShardFor(block.File, n)%owners] <- block
			})
		}(w)
	}
	var updaters sync.WaitGroup
	for u := range lanes {
		updaters.Add(1)
		go func(u int) {
			defer updaters.Done()
			for block := range lanes[u] {
				r.feed(block)
			}
			seal(u)
		}(u)
	}
	extractors.Wait()
	for _, lane := range lanes {
		close(lane)
	}
	updaters.Wait()
	return parts
}
