package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desksearch"
	"desksearch/internal/vfs"
)

// TestCorruptSegmentIs500 serves a lazily opened directory one of whose
// posting blocks has a flipped byte. A query that reads the block is this
// node's failure, not the client's: 500 with the segment_corrupt code on
// /search and on the worker's /internal/search (where a broker fails over
// on it), the corruption counter on /metrics moves, and queries that stay
// off the block keep answering 200.
func TestCorruptSegmentIs500(t *testing.T) {
	fs := vfs.NewMemFS()
	for i := 0; i < 16; i++ {
		// "zzz" sorts last in every shard's dictionary, so its block is
		// the last thing in every segment file.
		body := fmt.Sprintf("alpha beta w%d zzz", i)
		if err := fs.WriteFile(fmt.Sprintf("docs/f%02d.txt", i), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	built, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "shard-0000.dsix")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := desksearch.OpenDir(dir)
	if err != nil {
		t.Fatalf("open after a posting-block flip: %v", err)
	}
	t.Cleanup(func() { cat.Close() })
	ts := httptest.NewServer(New(Config{Catalog: cat, Worker: true, CacheEntries: -1}).Handler())
	t.Cleanup(ts.Close)

	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	for _, path := range []string{"/search?q=zzz", "/search?q=alpha+OR+zzz&rank=bm25&limit=5", "/search?q=zz%2A"} {
		if code := getJSON(t, ts.URL+path, &er); code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d (%q), want 500", path, code, er.Error)
		}
		if er.Code != string(desksearch.CodeSegmentCorrupt) {
			t.Fatalf("%s: code %q, want %q", path, er.Code, desksearch.CodeSegmentCorrupt)
		}
	}
	if status, _ := postSearch(t, ts.URL, InternalSearchRequest{Query: "zzz", Rank: "count", Limit: 5}); status != http.StatusInternalServerError {
		t.Fatalf("/internal/search over the corrupt block: status %d, want 500", status)
	}
	var sr SearchResponse
	if code := getJSON(t, ts.URL+"/search?q=alpha+beta&rank=bm25&limit=5", &sr); code != http.StatusOK || sr.Total != 16 {
		t.Fatalf("untouched query: status %d, total %d; want 200, 16", code, sr.Total)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	// Four failed queries, each of which read the block at least once.
	var reads int
	for _, line := range strings.Split(string(text), "\n") {
		fmt.Sscanf(line, "ds_segment_corruptions_total %d", &reads)
	}
	if reads < 4 {
		t.Fatalf("/metrics: ds_segment_corruptions_total = %d after four failed queries", reads)
	}
}
