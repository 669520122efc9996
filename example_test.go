package desksearch_test

import (
	"context"
	"fmt"
	"log"
	"testing/fstest"
	"time"

	"desksearch"
)

// A catalog over an in-memory tree, kept in step with an edit. Any fs.FS
// serves: os.DirFS for a host directory, fstest.MapFS here.
func ExampleCatalog_Update() {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	tree := fstest.MapFS{
		"notes/todo.txt":  {Data: []byte("buy milk, write the report"), ModTime: t0},
		"work/report.txt": {Data: []byte("quarterly report draft"), ModTime: t0},
	}
	cat, err := desksearch.IndexFS(tree, ".", desksearch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	show := func(query string) {
		resp, err := cat.Query(context.Background(), desksearch.Query{Text: query})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:", query)
		for _, h := range resp.Hits {
			fmt.Printf(" %s", h.Path)
		}
		fmt.Println()
	}
	show("report")
	show("final")

	// An edit is a new size or a later modification time.
	tree["work/report.txt"] = &fstest.MapFile{Data: []byte("quarterly report final"), ModTime: t0.Add(time.Hour)}
	st, err := cat.Update(tree, ".")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modified %d\n", st.Modified)
	show("final")
	show("draft")
	// Output:
	// report: notes/todo.txt work/report.txt
	// final:
	// modified 1
	// final: work/report.txt
	// draft:
}
