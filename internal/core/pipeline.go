package core

import (
	"cmp"
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
	// Files maps FileIDs to paths. A file the run could not read is
	// registered pending (index.FileTable.MarkPending), so the next
	// update retries it.
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
// (Unix nanoseconds) the file table records and an update compares, and
// the FileID the pipeline files its postings under, which ListFiles leaves
// to the caller's numbering.
type FileRef struct {
	Path    string
	Size    int64
	ModTime int64
	ID      postings.FileID
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
	for i, f := range files {
		files[i].ID = res.Files.Add(f.Path, f.Size, f.ModTime)
	}
	res.Timings.FilenameGen = time.Since(startTotal)

	n := cmp.Or(cfg.Shards, cfg.Replicas())
	// Stages 2+3: every term block is hash-routed to its file's partition
	// as it crosses the Stage 2→3 boundary, so nothing is redistributed
	// or joined afterwards.
	start23 := time.Now()
	out := Pipeline(fsys, cfg, files, n)
	for k, f := range files {
		res.Files.SetTokens(f.ID, out.Tokens[k])
		if err := out.Errs[k]; err != nil {
			res.Files.MarkPending(f.ID)
			res.SkippedFiles = append(res.SkippedFiles, Skipped{Path: f.Path, Err: err})
		}
	}
	res.Config = out.Config
	res.Set = shard.New(res.Files, out.Parts)
	res.Timings.ExtractUpdate = time.Since(start23)
	res.Timings.Total = time.Since(startTotal)
	return res, nil
}

// Output is what Stages 2 and 3 made of a list of files.
type Output struct {
	// Config is the tuple the pipeline ran, capped like Result.Config.
	Config Config
	// Parts holds the sealed partitions, partition s the files routed to s.
	Parts []*index.Index
	// Tokens and Errs hold each file's token length and read error, in
	// list order: a file not read has an error and no tokens.
	Tokens []uint32
	Errs   []error
}

// router holds a run's partition builders, in partition order.
type router []*index.Builder

// feed hands block to the builder of its file's partition, through the
// positional or plain insertion path, whichever the extractor recorded.
func (r router) feed(block extract.TermBlock) {
	b := r[shard.ShardFor(block.File, len(r))]
	if block.Ends != nil {
		b.AddBlockPositional(block.File, block.Terms, block.Ends, block.Pos)
		return
	}
	b.AddBlock(block.File, block.Terms, block.Counts)
}

// Pipeline runs Stages 2 and 3 over files into n partitions, each file
// under its FileRef.ID, and hands back what the caller's file table
// records; it writes none. Every partition has one owner that logs its
// blocks without locks and builds it as soon as its input ends
// (Implementation 3 with a routing rule): the one extractor when
// cfg.Updaters is 0, otherwise updater u for the partitions s ≡ u (mod y),
// fed through a lane of its own. An extractor past the file count or an
// updater past the partition count is not started. The list is dealt
// round-robin: extractor w owns files w, w+x, w+2x, … of it, a private
// vector read with no synchronization at all.
func Pipeline(fsys fs.FS, cfg Config, files []FileRef, n int) Output {
	cfg = cfg.normalized()
	cfg.Extractors = min(cfg.Extractors, max(len(files), 1))
	cfg.Updaters = min(cfg.Updaters, n)
	out := Output{Config: cfg, Parts: make([]*index.Index, n), Tokens: make([]uint32, len(files)), Errs: make([]error, len(files))}
	r := make(router, n)
	for i := range r {
		r[i] = index.NewBuilder(cfg.Extract.Positions)
	}
	owners := max(cfg.Updaters, 1)
	// seal builds the partitions s ≡ owner (mod owners).
	seal := func(owner int) {
		for s := owner; s < n; s += owners {
			out.Parts[s] = r[s].Index()
		}
	}

	// dealt runs extractor w over its share of the files, handing every
	// block to feed; it alone writes those files' slots of out.
	dealt := func(w int, feed func(extract.TermBlock)) {
		ex := extract.New(fsys, cfg.Extract)
		for k := w; k < len(files); k += cfg.Extractors {
			block, err := ex.File(files[k].Path, files[k].ID)
			if err != nil {
				out.Errs[k] = err
				continue
			}
			out.Tokens[k] = block.Tokens
			feed(block)
		}
	}
	if cfg.Updaters == 0 {
		// The one extractor updates the partitions itself.
		dealt(0, r.feed)
		seal(0)
		return out
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
	return out
}
