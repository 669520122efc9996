// Command dsearch answers desktop-search queries from a saved index or by
// indexing a directory on the fly.
//
// Usage:
//
//	dsearch -index DIR [-lazy]  QUERY...
//	dsearch -root DIR [-shards N] [-positions]  QUERY...
//
// -index names an index directory (a manifest plus segments, as written by
// indexgen -save DIR); a regular file there is a usage error. -root
// indexes every regular file under DIR by the one scanner rule (ASCII
// letters and digits, lower-cased; markup is text like any other), and
// -shards partitions that on-the-fly index for parallel fan-out search. -lazy opens
// the index in place (OpenDir) instead of materializing it: posting blocks
// decode on first touch only, so a selective query over a large index
// starts answering without paying the full load. Results are bit-identical
// either way.
//
// Queries are boolean: terms AND together, OR/NOT (or a leading '-'),
// parentheses, and quoted phrases work as expected:
//
//	dsearch -index idx 'quarterly report -draft'
//	dsearch -root docs -positions '"annual report" -draft'
//
// Quoted phrases match consecutive words only and need an index built
// with -positions (indexgen -positions, or dsearch -root -positions);
// against a position-free index they fail with a clear error. The shell
// usually requires wrapping a phrase query in single quotes.
//
// Retrieval runs through the Query API: -n and -offset page through the
// ranked results with bounded top-k retrieval per partition, -rank picks
// the scoring mode by name (count, tf, or bm25), -prefix restricts hits to
// a path prefix, -snippets prints a highlighted context window per hit
// (positional indexes only), and -timeout bounds the query via context
// cancellation. A trailing-wildcard term (repor*) matches every indexed
// term with that prefix; -suggest lists matching dictionary terms instead
// of searching.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"desksearch"
)

func main() {
	var (
		indexPath = flag.String("index", "", "read a saved index from this directory")
		root      = flag.String("root", "", "index this directory before searching")
		shards    = flag.Int("shards", 0, "with -root, partition the index into N document shards")
		pos       = flag.Bool("positions", false, "with -root, record token positions so quoted phrase queries work")
		lazy      = flag.Bool("lazy", false, "with -index DIR, serve the index in place without materializing it (decode only the posting blocks the query touches)")
		limit     = flag.Int("n", 20, "maximum results to return (0 = all)")
		offset    = flag.Int("offset", 0, "skip this many ranked results (pagination)")
		rank      = flag.String("rank", "count", "ranking mode: count (distinct matched terms), tf (term frequency), or bm25 (relevance)")
		prefix    = flag.String("prefix", "", "only return hits whose path starts with this prefix")
		snippets  = flag.Bool("snippets", false, "print a highlighted context window per hit (needs a positional index)")
		suggest   = flag.Bool("suggest", false, "treat QUERY as a term prefix and list completions instead of searching")
		timeout   = flag.Duration("timeout", 0, "abort the query after this duration (0 = no limit)")
		verbose   = flag.Bool("v", false, "print per-partition match counts and timings")
		top       = flag.Int("top", 0, "print the N most frequent terms instead of searching")
	)
	flag.Parse()
	if (flag.NArg() == 0 && *top == 0) || (*indexPath == "") == (*root == "") {
		fmt.Fprintln(os.Stderr, "usage: dsearch (-index DIR | -root DIR) [-top N] QUERY...")
		os.Exit(2)
	}

	// Ranking names are the wire values the daemon accepts too.
	ranking, err := desksearch.ParseRanking(*rank)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsearch: unknown -rank %q (want count, tf, or bm25)\n", *rank)
		os.Exit(2)
	}

	var cat *desksearch.Catalog
	switch {
	case *indexPath != "":
		cat, err = loadIndex(*indexPath, *lazy)
	default:
		if *lazy {
			fmt.Fprintln(os.Stderr, "dsearch: -lazy requires -index DIR (an on-the-fly index is already in memory)")
			os.Exit(2)
		}
		cat, err = desksearch.IndexDir(*root, desksearch.Options{Shards: *shards, Positions: *pos})
	}
	if err != nil {
		fatal(err)
	}

	if *top > 0 {
		fmt.Printf("%d most frequent terms:\n", *top)
		for _, tc := range cat.TopTerms(*top) {
			fmt.Printf("%6d  %s\n", tc.Files, tc.Term)
		}
		if flag.NArg() == 0 {
			return
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	query := strings.Join(flag.Args(), " ")
	if *suggest {
		n := *limit
		if n <= 0 {
			n = 10
		}
		sugs, err := cat.Suggest(ctx, query, n)
		if err != nil {
			fatal(err)
		}
		if len(sugs) == 0 {
			fmt.Printf("no completions for %q\n", query)
			return
		}
		for _, sg := range sugs {
			fmt.Printf("%6d  %s\n", sg.Files, sg.Term)
		}
		return
	}
	// Snippets require a bounded page; give the flag a sane one when the
	// user asked for every hit.
	snipLimit := *limit
	if *snippets && snipLimit <= 0 {
		snipLimit = 20
	}
	resp, err := cat.Query(ctx, desksearch.Query{
		Text:       query,
		Limit:      snipLimit,
		Offset:     *offset,
		Ranking:    ranking,
		PathPrefix: *prefix,
		Snippets:   *snippets,
	})
	if err != nil {
		fatal(err)
	}
	if resp.Total == 0 {
		fmt.Printf("no matches for %q\n", query)
		return
	}
	fmt.Printf("%d matches for %q", resp.Total, query)
	switch {
	case len(resp.Hits) == 0:
		fmt.Printf(" (page at offset %d is empty)", *offset)
	case len(resp.Hits) < resp.Total:
		fmt.Printf(" (showing %d-%d)", *offset+1, *offset+len(resp.Hits))
	}
	fmt.Println(":")
	for _, h := range resp.Hits {
		fmt.Printf("%8s. %s\n", formatScore(h.Score), h.Path)
		if h.Snippet != nil {
			fmt.Printf("          ...%s...\n", highlightSnippet(h.Snippet))
		}
	}
	if *verbose {
		for _, p := range resp.Partitions {
			fmt.Printf("partition %d: %d matched in %s\n", p.Partition, p.Matched, p.Duration.Round(time.Microsecond))
		}
	}
}

// formatScore prints integral scores (count and tf modes) without a
// fractional tail and BM25 scores with enough precision to compare.
func formatScore(s float64) string {
	if s == math.Trunc(s) {
		return strconv.FormatFloat(s, 'f', 0, 64)
	}
	return strconv.FormatFloat(s, 'f', 3, 64)
}

// highlightSnippet brackets the snippet's highlighted spans for terminal
// output: "the [annual] [report] for" — spans arrive ascending and
// non-overlapping, so a single left-to-right pass suffices.
func highlightSnippet(sn *desksearch.Snippet) string {
	var b strings.Builder
	last := 0
	for _, sp := range sn.Highlights {
		b.WriteString(sn.Text[last:sp.Start])
		b.WriteByte('[')
		b.WriteString(sn.Text[sp.Start:sp.End])
		b.WriteByte(']')
		last = sp.End
	}
	b.WriteString(sn.Text[last:])
	return b.String()
}

// loadIndex reads the index directory at path, in place when lazy.
func loadIndex(path string, lazy bool) (*desksearch.Catalog, error) {
	if lazy {
		return desksearch.OpenDir(path)
	}
	return desksearch.LoadDir(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsearch:", err)
	os.Exit(1)
}
