// Desktopsearch: the full workflow of a desktop search tool on a real
// directory — generate a realistic plain-text corpus on disk, index it
// with the sequential baseline and with the paper's parallel pipeline,
// persist the index, reload it, and answer queries.
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
)

func main() {
	dir, err := os.MkdirTemp("", "desksearch-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A scaled-down version of the paper's benchmark: plain text, as the
	// paper's extracted corpus was.
	spec := corpus.PaperSpec().Scale(1.0 / 512)
	stats, err := corpus.Generate(spec, corpus.Dir(dir))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d files, %.1f MB under %s\n\n",
		len(stats.Files), float64(stats.TotalBytes)/(1<<20), dir)

	// Index the same tree sequentially, (x, y) = (1, 0), and in parallel
	// with four extractors and two updaters, each owning one partition;
	// the two builds must agree.
	builds := []struct {
		name string
		opt  desksearch.Options
	}{
		{"sequential (1, 0)", desksearch.Options{Extractors: 1}},
		{"parallel (4, 2)", desksearch.Options{Extractors: 4, Updaters: 2}},
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
	for _, tc := range builds {
		cat, err := desksearch.IndexDir(dir, tc.opt)
		if err != nil {
			log.Fatal(err)
		}
		_, eu, _, _, total := cat.Timings()
		resp, err := cat.Query(ctx, page)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %4d hits   %d partitions   extract+update %6.3fs  total %6.3fs\n",
			tc.name, resp.Total, cat.Indices(), eu, total)
		if firstCount < 0 {
			firstCount = resp.Total
		} else if resp.Total != firstCount {
			log.Fatalf("builds disagree: %d vs %d hits", resp.Total, firstCount)
		}
		keep = cat
	}

	// Persist and reload, as a desktop tool does between sessions. The
	// partitions are hash-routed shards, saved one segment each.
	idxDir := filepath.Join(dir, "desksearch.idx")
	if err := keep.SaveDir(idxDir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nindex persisted: %s/ (manifest + %d segments)\n", idxDir, keep.Indices())

	loaded, err := desksearch.LoadDir(idxDir)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := loaded.Query(ctx, page)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded index answers %q with %d hits (expected %d)\n", query, resp.Total, firstCount)
	if resp.Total != firstCount {
		log.Fatalf("reloaded index disagrees: %d vs %d hits", resp.Total, firstCount)
	}
}
