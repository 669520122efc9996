// Serving: run the dsearchd daemon machinery against the quickstart
// corpus, on a real host directory so live reloads have something to
// watch.
//
// The example is self-driving: it writes a miniature corpus to a temp
// directory, starts the HTTP server on a loopback port, issues requests
// like the README's curl examples, edits the corpus, reloads, and shows
// the generation advancing and the new total — then shuts down. Run with:
//
//	go run ./examples/server
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"desksearch"
	"desksearch/internal/server"
)

func main() {
	// A miniature "home directory" on the host filesystem: reloads diff
	// the real tree, exactly like dsearchd -root would.
	root, err := os.MkdirTemp("", "desksearch-server-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	files := map[string]string{
		"docs/thesis-draft.txt": "thesis draft: parallel index generation for desktop search",
		"docs/thesis-final.txt": "thesis final: parallel index generation for desktop search",
		"mail/inbox.txt":        "lunch tomorrow? also the search demo crashed again",
		"notes/shopping.txt":    "milk eggs flour",
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// Load the catalog once; the daemon keeps it memory-resident across
	// requests — this is dsearchd's startup path.
	opts := desksearch.Options{Shards: 2}
	cat, err := desksearch.IndexDir(root, opts)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.Config{
		Catalog: cat,
		Update:  func() (desksearch.UpdateStats, error) { return cat.UpdateDir(root) },
		Rebuild: func() (*desksearch.Catalog, error) { return desksearch.IndexDir(root, opts) },
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("dsearchd-style server on %s\n\n", base)

	const query = "/search?q=search+-crashed"
	before := show("GET "+query, get(base+query))
	show("GET /healthz", get(base+"/healthz"))

	// Edit the corpus and reload: the daemon re-diffs the tree through
	// the delta pipeline, the commit advances the catalog's generation,
	// and the next query answers from the new state.
	if err := os.WriteFile(filepath.Join(root, "mail/sent.txt"),
		[]byte("fixed the demo: the search index was racing"), 0o644); err != nil {
		log.Fatal(err)
	}
	show("POST /reload   (after writing mail/sent.txt)", post(base+"/reload"))
	after := show("GET "+query+"   (after the reload)", get(base+query))
	fmt.Printf("generation %v → %v, total %v → %v\n\n", before["generation"], after["generation"], before["total"], after["total"])
	if after["generation"] == before["generation"] || after["total"] != before["total"].(float64)+1 {
		log.Fatal("the reload did not reach /search")
	}
	show("GET /stats", get(base+"/stats"))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
}

func get(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return body
}

func post(url string) []byte {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return body
}

// show pretty-prints one JSON response under its request line and
// returns it decoded.
func show(req string, body []byte) map[string]any {
	var buf map[string]any
	if err := json.Unmarshal(body, &buf); err != nil {
		log.Fatalf("%s: %v\n%s", req, err, body)
	}
	pretty, _ := json.MarshalIndent(buf, "  ", "  ")
	fmt.Printf("%s\n  %s\n\n", req, pretty)
	return buf
}
