// Command indexgen builds an inverted index over a directory tree with the
// paper's pipeline (Implementation 3: partitions with one owner each) and
// reports stage timings.
//
// Usage:
//
//	indexgen -root DIR [-x N -y N] [-shards N] [-positions] [-save DIR]
//	         [-stages]
//	indexgen -root DIR -update -save DIR [-x N]
//
// With -positions every term occurrence's token position is recorded,
// enabling quoted phrase queries ('"annual report"') at the cost of a
// larger index; the saved files record it in a flags bit (docs/FORMAT.md)
// and -update re-extracts positionally without restating the flag.
//
// -x and -y are the paper's thread tuple: x term extractors and y index
// updaters. -x 0 means one per CPU, and -y 2 when -y is 0 too; -x 1 -y 0
// is the sequential baseline, and several extractors with -y 0 run one
// updater.
//
// -save DIR writes the index into the directory DIR: a checksummed
// manifest plus one segment file per partition. Every build is
// partitioned by a hash of each file's ID: into the N document shards of
// -shards N, otherwise one per updater, or one when there are none. DIR
// must be missing or a directory: anything else is a usage error, reported
// before the build starts.
//
// With -update the catalog saved under -save is loaded, diffed against
// the live tree under -root, patched in place — added, modified, and
// deleted files only, no full rebuild — and written back, rewriting only
// the segment files the changeset dirtied plus the manifest. Every file is
// extracted by the one scanner rule, and the segments record whether the
// build kept positions, so changed files are re-extracted as the build
// extracted them; -x only sizes the re-extraction pool.
//
// With -stages it instead reproduces the paper's Table 1 methodology on
// the live directory: isolated sequential timings of filename generation,
// reading, reading+extraction, and index update.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"desksearch"
	"desksearch/internal/core"
	"desksearch/internal/extract"
)

func main() {
	var (
		root   = flag.String("root", "", "directory to index (required)")
		x      = flag.Int("x", 0, "term-extraction threads (0 = one per CPU)")
		y      = flag.Int("y", 0, "index-update threads, each owning its partitions (0 = 2 when -x is 0; none when -x is 1; else 1)")
		shards = flag.Int("shards", 0, "partition the index into N document shards (0 = one per updater)")
		pos    = flag.Bool("positions", false, "record token positions (enables quoted phrase queries; larger index)")
		save   = flag.String("save", "", "write the built index into this directory (manifest + one segment per partition)")
		stages = flag.Bool("stages", false, "measure isolated sequential stage times (paper Table 1) and exit")
		update = flag.Bool("update", false, "incrementally update the saved catalog under -save against -root instead of rebuilding")
	)
	flag.Parse()
	if *root == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkSaveTarget(*save); err != nil {
		fmt.Fprintln(os.Stderr, "indexgen:", err)
		os.Exit(2)
	}

	if *update {
		if *save == "" {
			fatal(fmt.Errorf("-update needs -save DIR naming the saved catalog"))
		}
		// The segments' flags record positions, so LoadDir re-enables
		// them without -positions.
		runUpdate(*root, *save, desksearch.Options{Extractors: *x, Positions: *pos})
		return
	}

	if *stages {
		st, err := core.MeasureStages(os.DirFS(*root), ".", extract.Options{Positions: *pos})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("filename generation:      %8.3fs\n", st.FilenameGen.Seconds())
		fmt.Printf("read files:               %8.3fs\n", st.ReadFiles.Seconds())
		fmt.Printf("read files + extract:     %8.3fs\n", st.ReadExtract.Seconds())
		fmt.Printf("index update:             %8.3fs\n", st.IndexUpdate.Seconds())
		return
	}

	cat, err := desksearch.IndexDir(*root, desksearch.Options{
		Extractors: *x,
		Updaters:   *y,
		Shards:     *shards,
		Positions:  *pos,
	})
	if err != nil {
		fatal(err)
	}

	s := cat.Stats()
	// The join and shard phases are always 0: no build joins, and sharding
	// happens inside extract+update.
	fGen, eu, _, _, total := cat.Timings()
	fmt.Printf("indexed %d files: %d terms, %d postings (%d partitions, %d skipped)\n",
		s.Files, s.Terms, s.Postings, cat.Indices(), s.Skipped)
	fmt.Printf("filename generation: %.3fs   extract+update: %.3fs   total: %.3fs\n",
		fGen, eu, total)

	if *save != "" {
		if err := cat.SaveDir(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("index saved to %s/ (manifest + %d segments)\n", *save, cat.Indices())
	}
}

// checkSaveTarget refuses a -save path that is neither missing nor a
// directory (or a link to one), before any index is built: SaveDir would
// only fail on it once the build's work was done.
func checkSaveTarget(path string) error {
	if path == "" {
		return nil
	}
	info, err := os.Stat(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("-save %s: %w", path, err)
	case !info.IsDir():
		return fmt.Errorf("-save %s: not a directory; -save names the directory an index is saved into", path)
	}
	return nil
}

// runUpdate loads the catalog under saveDir, applies the changes found
// under root, and writes back only what the changeset dirtied.
func runUpdate(root, saveDir string, opt desksearch.Options) {
	start := time.Now()
	cat, err := desksearch.LoadDir(saveDir, opt)
	if err != nil {
		fatal(err)
	}
	loaded := time.Since(start)

	startUpdate := time.Now()
	st, err := cat.UpdateDir(root)
	if err != nil {
		fatal(err)
	}
	updated := time.Since(startUpdate)
	dirty := cat.DirtySegments()

	startSave := time.Now()
	if err := cat.SaveDir(saveDir); err != nil {
		fatal(err)
	}
	saved := time.Since(startSave)

	s := cat.Stats()
	fmt.Printf("updated %s: +%d added, ~%d modified, -%d deleted files (+%d/-%d postings, %d skipped)\n",
		saveDir, st.Added, st.Modified, st.Deleted, st.PostingsAdded, st.PostingsRemoved, st.SkippedFiles)
	fmt.Printf("catalog now: %d files, %d terms, %d postings across %d partitions\n",
		s.Files, s.Terms, s.Postings, cat.Indices())
	fmt.Printf("rewrote %d/%d segments + manifest\n", dirty, cat.Indices())
	fmt.Printf("load: %.3fs   update: %.3fs   save: %.3fs\n",
		loaded.Seconds(), updated.Seconds(), saved.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indexgen:", err)
	os.Exit(1)
}
