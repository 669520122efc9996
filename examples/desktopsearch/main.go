// Desktopsearch: the full workflow of a desktop search tool on a real
// directory — generate a realistic mixed-format corpus on disk, compare
// the paper's three pipeline implementations on it, persist the index,
// reload it, and answer queries.
//
// Run with:
//
//	go run ./examples/desktopsearch
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"desksearch"
	"desksearch/internal/corpus"
	"desksearch/internal/vfs"
)

func main() {
	dir, err := os.MkdirTemp("", "desksearch-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A scaled-down version of the paper's benchmark, with HTML and WP
	// files mixed in to exercise format extraction.
	spec := corpus.PaperSpec().Scale(1.0 / 512)
	spec.HTMLFraction = 0.15
	spec.WPFraction = 0.10
	stats, err := corpus.Generate(spec, vfs.NewOSFS(dir))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d files, %.1f MB under %s\n\n",
		len(stats.Files), float64(stats.TotalBytes)/(1<<20), dir)

	// Index the same tree with all three implementations; they must agree.
	impls := []struct {
		name string
		impl desksearch.Implementation
	}{
		{"Implementation 1 (shared, locked index)", desksearch.SharedIndex},
		{"Implementation 2 (replicate + join)", desksearch.ReplicatedJoin},
		{"Implementation 3 (replicate, no join)", desksearch.ReplicatedSearch},
	}
	// Query the corpus's three most frequent words (the generator draws
	// terms Zipf-distributed, so low vocabulary ranks dominate).
	vocab := corpus.BuildVocabulary(spec)
	query := fmt.Sprintf("%s OR %s OR %s", vocab[0], vocab[1], vocab[2])
	// A desktop UI wants one page of results, not the full hit list: ask
	// for the top 10 and let Response.Total report the rest. Parsing once
	// up front (ParseQuery) skips re-parsing per catalog.
	expr, err := desksearch.ParseQuery(query)
	if err != nil {
		log.Fatal(err)
	}
	page := desksearch.Query{Expr: expr, Limit: 10}
	ctx := context.Background()
	var firstCount = -1
	var keep *desksearch.Catalog
	for _, tc := range impls {
		cat, err := desksearch.IndexDir(dir, desksearch.Options{
			Implementation: tc.impl,
			Extractors:     4, Updaters: 2, Joiners: 1,
			Formats: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		_, eu, join, _, total := cat.Timings()
		resp, err := cat.Query(ctx, page)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s %4d hits   extract+update %6.3fs  join %6.3fs  total %6.3fs\n",
			tc.name, resp.Total, eu, join, total)
		if firstCount < 0 {
			firstCount = resp.Total
		} else if resp.Total != firstCount {
			log.Fatalf("implementations disagree: %d vs %d hits", resp.Total, firstCount)
		}
		keep = cat
	}

	// Persist and reload, as a desktop tool does between sessions. The
	// unjoined replicas are saved as they are, one segment each.
	idxDir := filepath.Join(dir, "desksearch.idx")
	if err := keep.SaveDir(idxDir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nindex persisted: %s/ (manifest + %d segments)\n", idxDir, keep.Indices())

	loaded, err := desksearch.LoadDir(idxDir, desksearch.Options{Formats: true})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := loaded.Query(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded index answers %q with %d hits (expected %d)\n", query, resp.Total, firstCount)
}
