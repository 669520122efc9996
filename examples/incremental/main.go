// Incremental: keep a catalog in step with a changing file tree.
//
// The paper builds its index in one batch; a real desktop search tool must
// also follow the user's edits. This example builds a sharded catalog with
// the batch pipeline, persists it, then drives it through the public
// incremental API — Catalog.Update — as files are created, edited, and
// deleted, checking after every step that the incrementally maintained
// catalog answers exactly like a fresh rebuild of the current tree, and
// that saving the update back rewrites only the segments it dirtied.
//
// Run with:
//
//	go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"testing/fstest"
	"time"

	"desksearch"
)

func main() {
	// The tree lives in memory. Update sees an edit by its size and
	// modification time, so every write stamps a later time.
	fs := fstest.MapFS{}
	clock := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	write := func(name, content string) {
		clock = clock.Add(time.Second)
		fs[name] = &fstest.MapFile{Data: []byte(content), ModTime: clock}
	}
	write("inbox/1.txt", "meeting notes budget review")
	write("inbox/2.txt", "lunch plans")
	write("projects/plan.txt", "project plan budget draft")

	opts := desksearch.Options{Extractors: 1, Shards: 2}
	cat, err := desksearch.IndexFS(fs, ".", opts)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "incremental-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := cat.SaveDir(dir); err != nil {
		log.Fatal(err)
	}

	report := func(when string) {
		resp, err := cat.Query(context.Background(), desksearch.Query{Text: "budget"})
		if err != nil {
			log.Fatal(err)
		}
		s := cat.Stats()
		fmt.Printf("%-28s budget matches %d file(s); %d files, %d postings\n",
			when+":", resp.Total, s.Files, s.Postings)
	}
	report("initial build")

	// The user deletes a file: Update tombstones its FileID and drops its
	// postings in place — no re-walk of the unchanged files.
	delete(fs, "projects/plan.txt")
	st, err := cat.Update(fs, ".")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after delete: %d file removed, %d postings dropped\n",
		st.Deleted, st.PostingsRemoved)
	report("after delete")

	// The user edits one file and creates another: one Update re-extracts
	// exactly those two and routes their term blocks to the owning shards.
	write("inbox/2.txt", "lunch plans moved, budget discussion instead")
	write("inbox/3.txt", "new budget spreadsheet attached")
	if st, err = cat.Update(fs, "."); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after edits: +%d added, ~%d modified (+%d postings)\n",
		st.Added, st.Modified, st.PostingsAdded)
	report("after edits")

	// Persist the delta: only the dirtied segments are rewritten.
	fmt.Printf("saving back: %d/2 segments dirty\n", cat.DirtySegments())
	if err := cat.SaveDir(dir); err != nil {
		log.Fatal(err)
	}

	// Cross-check: the incrementally maintained catalog, and a reload of
	// what it saved, must answer exactly like a fresh rebuild of the tree.
	fresh, err := desksearch.IndexFS(fs, ".", opts)
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := desksearch.LoadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []string{"budget", "plans -lunch", "-budget", "meeting OR spreadsheet"} {
		want := resultSet(fresh, q)
		if got := resultSet(cat, q); got != want {
			log.Fatalf("%q: incremental %q diverged from rebuild %q", q, got, want)
		}
		if got := resultSet(reloaded, q); got != want {
			log.Fatalf("%q: reloaded %q diverged from rebuild %q", q, got, want)
		}
	}
	fmt.Println("incremental catalog verified against a fresh rebuild ✓")
}

// resultSet renders a query's hits as a canonical sorted "path=score,..."
// string for comparison across catalogs. Paths and scores must agree;
// result order may not, because an incrementally maintained catalog
// assigns different FileIDs (the tie-breaker) than a fresh build.
func resultSet(cat *desksearch.Catalog, query string) string {
	resp, err := cat.Query(context.Background(), desksearch.Query{Text: query})
	if err != nil {
		log.Fatal(err)
	}
	lines := make([]string, len(resp.Hits))
	for i, h := range resp.Hits {
		lines[i] = fmt.Sprintf("%s=%g", h.Path, h.Score)
	}
	sort.Strings(lines)
	return strings.Join(lines, ",")
}
