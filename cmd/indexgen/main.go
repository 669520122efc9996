// Command indexgen builds an inverted index over a directory tree with any
// of the paper's pipeline implementations and reports stage timings.
//
// Usage:
//
//	indexgen -root DIR [-impl seq|shared|join|nojoin] [-x N -y N -z N]
//	         [-shards N] [-formats] [-positions] [-save DIR] [-stages]
//	indexgen -root DIR -update -save DIR [-formats] [-x N]
//
// With -positions every term occurrence's token position is recorded,
// enabling quoted phrase queries ('"annual report"') at the cost of a
// larger index; the saved files record it in a flags bit (docs/FORMAT.md)
// and -update re-extracts positionally without restating the flag.
//
// -save DIR writes the index into the directory DIR: a checksummed
// manifest plus one segment file per partition — the N document shards of
// -shards N, otherwise the build's own indices (one, or the unjoined
// replicas). An existing regular file at DIR is a usage error.
//
// With -update the catalog saved under -save is loaded, diffed against
// the live tree under -root, patched in place — added, modified, and
// deleted files only, no full rebuild — and written back, rewriting only
// the segment files the changeset dirtied plus the manifest. Pass the same -formats (and optionally -x) the build
// used: extraction options are not persisted in the catalog.
//
// With -stages it instead reproduces the paper's Table 1 methodology on
// the live directory: isolated sequential timings of filename generation,
// reading, reading+extraction, and index update.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"desksearch"
	"desksearch/internal/core"
	"desksearch/internal/extract"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

func main() {
	var (
		root    = flag.String("root", "", "directory to index (required)")
		impl    = flag.String("impl", "nojoin", "implementation: seq, shared (impl 1), join (impl 2), nojoin (impl 3)")
		x       = flag.Int("x", 0, "term-extraction threads (0 = auto)")
		y       = flag.Int("y", 0, "index-update threads")
		z       = flag.Int("z", 0, "index-join threads (join only)")
		shards  = flag.Int("shards", 0, "partition the index into N document shards (0 = off)")
		formats = flag.Bool("formats", false, "strip HTML/WP markup before indexing")
		pos     = flag.Bool("positions", false, "record token positions (enables quoted phrase queries; larger index)")
		save    = flag.String("save", "", "write the built index into this directory (manifest + one segment per partition)")
		stages  = flag.Bool("stages", false, "measure isolated sequential stage times (paper Table 1) and exit")
		update  = flag.Bool("update", false, "incrementally update the saved catalog under -save against -root instead of rebuilding")
	)
	flag.Parse()
	if *root == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkSaveDir(*save); err != nil {
		fmt.Fprintln(os.Stderr, "indexgen:", err)
		os.Exit(2)
	}

	if *update {
		if *save == "" {
			fatal(fmt.Errorf("-update needs -save DIR naming the saved catalog"))
		}
		// Build options are not persisted in the catalog, so the update
		// must be told the original extraction flags to re-extract changed
		// files the same way. Positions are the exception: the segments'
		// flags record them, so LoadDir re-enables them automatically.
		runUpdate(*root, *save, desksearch.Options{Formats: *formats, Extractors: *x, Positions: *pos})
		return
	}

	if *stages {
		st, err := core.MeasureStages(vfs.NewOSFS(*root), ".", extract.Options{
			Tokenize: tokenize.Default, Formats: *formats, Positions: *pos,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("filename generation:      %8.3fs\n", st.FilenameGen.Seconds())
		fmt.Printf("read files:               %8.3fs\n", st.ReadFiles.Seconds())
		fmt.Printf("read files + extract:     %8.3fs\n", st.ReadExtract.Seconds())
		fmt.Printf("index update:             %8.3fs\n", st.IndexUpdate.Seconds())
		return
	}

	implementation, err := parseImpl(*impl)
	if err != nil {
		fatal(err)
	}
	cat, err := desksearch.IndexDir(*root, desksearch.Options{
		Implementation: implementation,
		Extractors:     *x,
		Updaters:       *y,
		Joiners:        *z,
		Shards:         *shards,
		Formats:        *formats,
		Positions:      *pos,
	})
	if err != nil {
		fatal(err)
	}

	s := cat.Stats()
	// The fourth value, a shard phase, is always 0: sharding happens inside
	// extract+update.
	fGen, eu, join, _, total := cat.Timings()
	fmt.Printf("indexed %d files: %d terms, %d postings (%d indices, %d skipped)\n",
		s.Files, s.Terms, s.Postings, cat.Indices(), s.Skipped)
	if n := cat.Shards(); n > 0 {
		fmt.Printf("sharded into %d document partitions\n", n)
	}
	fmt.Printf("filename generation: %.3fs   extract+update: %.3fs   join: %.3fs   total: %.3fs\n",
		fGen, eu, join, total)

	if *save != "" {
		if err := cat.SaveDir(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("index saved to %s/ (manifest + %d segments)\n", *save, cat.Indices())
	}
}

// checkSaveDir rejects a -save target that exists as a regular file: an
// index is saved as a directory, and a file there is most likely a
// single-file index an earlier version wrote.
func checkSaveDir(path string) error {
	if info, err := os.Stat(path); err == nil && !info.IsDir() {
		return fmt.Errorf("-save %s is a regular file; an index is saved as a directory (manifest.dsix + segments): name a directory", path)
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
	fmt.Printf("catalog now: %d files, %d terms, %d postings across %d indices\n",
		s.Files, s.Terms, s.Postings, cat.Indices())
	fmt.Printf("rewrote %d/%d segments + manifest\n", dirty, cat.Indices())
	fmt.Printf("load: %.3fs   update: %.3fs   save: %.3fs\n",
		loaded.Seconds(), updated.Seconds(), saved.Seconds())
}

func parseImpl(name string) (desksearch.Implementation, error) {
	switch name {
	case "seq", "sequential":
		return desksearch.Sequential, nil
	case "shared", "impl1", "1":
		return desksearch.SharedIndex, nil
	case "join", "impl2", "2":
		return desksearch.ReplicatedJoin, nil
	case "nojoin", "impl3", "3":
		return desksearch.ReplicatedSearch, nil
	default:
		return 0, fmt.Errorf("unknown implementation %q (want seq, shared, join, or nojoin)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indexgen:", err)
	os.Exit(1)
}
