// Quickstart: build an index over an in-memory corpus and search it.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"testing/fstest"

	"desksearch"
)

func main() {
	// A miniature "home directory": any fs.FS serves, here an in-memory
	// one (os.DirFS would index a real directory).
	fs := fstest.MapFS{
		"docs/thesis-draft.txt": {Data: []byte("thesis draft: parallel index generation for desktop search")},
		"docs/thesis-final.txt": {Data: []byte("thesis final: parallel index generation for desktop search")},
		"mail/inbox.txt":        {Data: []byte("lunch tomorrow? also the search demo crashed again")},
		"mail/sent.txt":         {Data: []byte("fixed the demo, the index rebuild was racing the search")},
		"notes/shopping.txt":    {Data: []byte("milk eggs flour")},
	}

	// Index with the paper's Implementation 3 (partitions with one owner
	// each, searched in parallel) — desksearch.Options{} auto-sizes it.
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	s := cat.Stats()
	fmt.Printf("indexed %d files into %d terms, %d postings (%d parallel indices)\n\n",
		s.Files, s.Terms, s.Postings, cat.Indices())

	// Query is the v2 search API: a request with pagination, ranking mode,
	// and path filtering, answered with matched-term metadata and a total
	// count. The zero controls return every hit, coordination-ranked.
	ctx := context.Background()
	for _, query := range []string{
		"search",
		"index search",
		"thesis -draft",
		"milk OR eggs",
	} {
		resp, err := cat.Query(ctx, desksearch.Query{Text: query, Limit: 10})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16q -> %d hit(s)\n", query, resp.Total)
		for _, h := range resp.Hits {
			fmt.Printf("    score %g  %-22s matched: %s\n", h.Score, h.Path, strings.Join(h.Terms, " "))
		}
	}

	// Term-frequency ranking orders by how often the terms occur, and
	// PathPrefix restricts the search to one directory.
	resp, err := cat.Query(ctx, desksearch.Query{
		Text:       "search OR index",
		Ranking:    desksearch.RankTF,
		PathPrefix: "docs/",
		Limit:      3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTF-ranked under docs/: %d hit(s)\n", resp.Total)
	for _, h := range resp.Hits {
		fmt.Printf("    tf %g  %s\n", h.Score, h.Path)
	}
}
