package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desksearch"
	"desksearch/internal/metrics"
	"desksearch/internal/vfs"
)

// corruptCatalog saves a positional two-shard directory of 16 files, flips
// a byte in the posting block of "zzz" — the last term of every shard, so
// its block ends every segment file — in shard 0, and opens the directory
// lazily. It returns the corpus too, for rebuilding a clean catalog.
func corruptCatalog(t *testing.T) (*vfs.MemFS, *desksearch.Catalog) {
	t.Helper()
	fs := vfs.NewMemFS()
	for i := 0; i < 16; i++ {
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
	return fs, cat
}

// TestCorruptSegmentIs500 serves a lazily opened directory one of whose
// posting blocks has a flipped byte. A query that reads the block is this
// node's failure, not the client's: 500 with the segment_corrupt code on
// /search and on the worker's /internal/search (where a broker fails over
// on it), the corruption counter on /metrics moves, and queries that stay
// off the block keep answering 200.
func TestCorruptSegmentIs500(t *testing.T) {
	_, cat := corruptCatalog(t)
	ts := httptest.NewServer(New(Config{Catalog: cat, Worker: true}).Handler())
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
	if status, _ := postSearch(t, ts.URL, "q=zzz&rank=count&limit=5", nil); status != http.StatusInternalServerError {
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

// TestCorruptSegmentDegradesHealth: /healthz is 200 until a query reads the
// flipped block, then 503 "degraded" with the corruption count, and a full
// reload onto a clean catalog makes it 200 again.
func TestCorruptSegmentDegradesHealth(t *testing.T) {
	fs, cat := corruptCatalog(t)
	rebuild := func() (*desksearch.Catalog, error) {
		return desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true})
	}
	ts := httptest.NewServer(New(Config{Catalog: cat, Rebuild: rebuild}).Handler())
	t.Cleanup(ts.Close)

	var hz struct {
		Status      string `json:"status"`
		Corruptions uint64 `json:"segment_corruptions"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("/healthz before any corrupt read: %d %+v", code, hz)
	}
	if code := getJSON(t, ts.URL+"/search?q=zzz", &struct{}{}); code != http.StatusInternalServerError {
		t.Fatalf("query over the flipped block: status %d, want 500", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable || hz.Status != "degraded" || hz.Corruptions == 0 {
		t.Fatalf("/healthz after a corrupt read: %d %+v, want 503 degraded with a count", code, hz)
	}
	resp, err := http.Post(ts.URL+"/reload?mode=full", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full reload: status %d", resp.StatusCode)
	}
	hz.Corruptions = 0
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" || hz.Corruptions != 0 {
		t.Fatalf("/healthz after a full reload: %d %+v, want 200 ok", code, hz)
	}
}

// TestInternalErrorIs500: a query whose evaluation panicked — which the
// engine turns into a QueryError with the internal code — is the node's
// failure: the front door answers 500 with that code, counts the request
// under outcome="error", and answers the next request as before.
func TestInternalErrorIs500(t *testing.T) {
	reg := metrics.NewRegistry()
	fd := NewFrontDoor(Backend{
		Search: func(_ context.Context, q desksearch.Query) (*SearchResponse, error) {
			if strings.Contains(q.Expr.String(), "boom") {
				return nil, &desksearch.QueryError{Code: desksearch.CodeInternal,
					Err: fmt.Errorf("%w: partition 1: read of boom", desksearch.ErrInternal)}
			}
			return &SearchResponse{}, nil
		},
		ErrorStatus: nodeErrorStatus,
	}, 0, 0, reg)
	mux := http.NewServeMux()
	fd.Register(mux)
	mux.Handle("GET /metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(q string) (int, errorResponse) {
		resp, err := http.Get(ts.URL + "/search?q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, er
	}
	if code, er := get("boom"); code != http.StatusInternalServerError || er.Code != string(desksearch.CodeInternal) {
		t.Fatalf("panicked query: status %d, code %q; want 500, %q", code, er.Code, desksearch.CodeInternal)
	}
	if code, _ := get("alpha"); code != http.StatusOK {
		t.Fatalf("next query: status %d", code)
	}
	after := scrape(t, ts.URL)
	for series, want := range map[string]float64{
		`ds_requests_total{endpoint="search",outcome="error"}`: 1,
		`ds_requests_total{endpoint="search",outcome="ok"}`:    1,
	} {
		if after[series] != want {
			t.Errorf("%s = %v, want %v", series, after[series], want)
		}
	}
}
