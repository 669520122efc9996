package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"desksearch"
	"desksearch/internal/vfs"
)

// workerFixture saves a 3-shard positional corpus and serves the [0, 2]
// subset in worker mode.
func workerFixture(t *testing.T) (*fixture, string) {
	t.Helper()
	fs := vfs.NewMemFS()
	for name, content := range map[string]string{
		"docs/report.txt":  "quarterly report alpha beta report",
		"docs/draft.txt":   "draft report beta gamma",
		"docs/minutes.txt": "annual report alpha",
		"notes/todo.txt":   "alpha gamma delta",
		"notes/plan.txt":   "beta quarterly forecast",
		"notes/memo.txt":   "report forecast gamma",
	} {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	built, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	cat, err := desksearch.OpenDirShards(dir, []int{0, 2}, desksearch.Options{BlockCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv := New(Config{Catalog: cat, Worker: true, CacheEntries: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{cat: cat, srv: srv, ts: ts}, dir
}

// TestWorkerEndpoints drives the three /internal routes of a subset
// worker directly: topology in meta, a df vector consistent with the
// catalog, and partial results with global partition IDs and exact score
// bits.
func TestWorkerEndpoints(t *testing.T) {
	fx, _ := workerFixture(t)

	var meta WorkerMeta
	mustGetJSON(t, fx.ts.URL+"/internal/meta", &meta)
	if fmt.Sprint(meta.Shards) != "[0 2]" || meta.TotalShards != 3 {
		t.Fatalf("meta topology = %v of %d, want [0 2] of 3", meta.Shards, meta.TotalShards)
	}
	if meta.Files != 6 {
		t.Fatalf("meta.Files = %d, want the directory-wide 6", meta.Files)
	}
	if !meta.Positional {
		t.Fatal("meta.Positional = false for a positional directory")
	}

	// /internal/df answers in the partial's layout too: a partial with no
	// page, only the vector.
	df := mustGetPartial(t, fx.ts.URL+"/internal/df?q=report+forecast").DF
	if df.Docs != 6 {
		t.Fatalf("df.Docs = %d, want corpus-wide 6", df.Docs)
	}
	if len(df.Terms) != 2 {
		t.Fatalf("df.Terms = %v, want one count per positive term", df.Terms)
	}

	status, out := postSearch(t, fx.ts.URL, InternalSearchRequest{Query: "report", Rank: "bm25", Limit: 10})
	if status != http.StatusOK {
		t.Fatalf("/internal/search status %d", status)
	}
	if len(out.Hits) == 0 {
		t.Fatal("worker found nothing for a common term")
	}
	for _, h := range out.Hits {
		if h.Score <= 0 || math.IsNaN(h.Score) {
			t.Fatalf("hit %s: bad score bits %x", h.Path, math.Float64bits(h.Score))
		}
	}
	// The partial carries the worker's own vector for the query, the same
	// one /internal/df reports.
	local := mustGetPartial(t, fx.ts.URL+"/internal/df?q=report").DF
	if out.DF.Docs != local.Docs || out.DF.Tokens != local.Tokens || fmt.Sprint(out.DF.Terms) != fmt.Sprint(local.Terms) {
		t.Fatalf("partial df = %+v, /internal/df = %+v", out.DF, local)
	}
	for _, p := range out.Partitions {
		if p.Partition != 0 && p.Partition != 2 {
			t.Fatalf("partition stat uses local index %d, want global shard numbers 0/2", p.Partition)
		}
	}

	// The uncached evaluation fed the per-partition timing windows, and
	// /stats reports them by global shard number, alongside the worker
	// and block-cache blocks.
	var st StatsResponse
	mustGetJSON(t, fx.ts.URL+"/stats", &st)
	if st.Worker == nil || fmt.Sprint(st.Worker.Shards) != "[0 2]" || st.Worker.TotalShards != 3 {
		t.Fatalf("stats.Worker = %+v, want shards [0 2] of 3", st.Worker)
	}
	if st.BlockCache == nil || st.BlockCache.BudgetBytes != 1<<20 {
		t.Fatalf("stats.BlockCache = %+v, want the configured 1MiB budget", st.BlockCache)
	}
	if len(st.PartitionTimings) == 0 {
		t.Fatal("stats.PartitionTimings empty after an uncached query")
	}
	for _, pt := range st.PartitionTimings {
		if pt.Partition != 0 && pt.Partition != 2 {
			t.Fatalf("timing summary for partition %d, want global shard numbers 0/2", pt.Partition)
		}
		if pt.Queries == 0 || pt.MaxUS < pt.MinUS || pt.P95US < pt.MedianUS {
			t.Fatalf("inconsistent timing summary %+v", pt)
		}
	}
}

// TestWorkerSearchWithGlobalDF: scoring under broker-supplied statistics
// changes the BM25 idf inputs, and a mis-shaped vector is a 400.
func TestWorkerSearchWithGlobalDF(t *testing.T) {
	fx, _ := workerFixture(t)

	post := func(req InternalSearchRequest) (int, *Partial) { return postSearch(t, fx.ts.URL, req) }

	// A df vector matching the query shape is accepted; corpus-global
	// values equal to the local ones reproduce the local scores.
	status, out := post(InternalSearchRequest{
		Query: "report", Rank: "bm25", Limit: 5,
		DF: &desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{4}},
	})
	if status != http.StatusOK {
		t.Fatalf("well-shaped GlobalDF rejected: %d", status)
	}
	// The vector that comes back is the worker's own, not an echo of the
	// one it was handed: shards 0 and 2 hold fewer than all four "report"s.
	if len(out.DF.Terms) != 1 || out.DF.Terms[0] >= 4 || out.DF.Docs != 6 {
		t.Fatalf("partial df under GlobalDF = %+v, want the local vector", out.DF)
	}

	// Wrong arity for the query → deterministic client error.
	status, _ = post(InternalSearchRequest{
		Query: "report", Rank: "bm25", Limit: 5,
		DF: &desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{4, 9}},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("mis-shaped GlobalDF = %d, want 400", status)
	}

	// A negative count would score NaN → client error, not a 200 partial.
	for _, df := range []*desksearch.DocFreqs{
		{Docs: 6, Tokens: 24, Terms: []int{-1}},
		{Docs: -6, Tokens: 24, Terms: []int{4}},
	} {
		if status, _ = post(InternalSearchRequest{Query: "report", Rank: "bm25", Limit: 5, DF: df}); status != http.StatusBadRequest {
			t.Fatalf("negative GlobalDF %+v = %d, want 400", df, status)
		}
	}
	// A frequency above Docs is what a stale broker table sends after
	// deletions; it is scored (finitely), and verify-then-return fixes it.
	status, out = post(InternalSearchRequest{
		Query: "report", Rank: "bm25", Limit: 5,
		DF: &desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{9}},
	})
	if status != http.StatusOK {
		t.Fatalf("GlobalDF above Docs = %d, want 200", status)
	}
	for _, h := range out.Hits {
		if math.IsNaN(h.Score) || math.IsInf(h.Score, 0) {
			t.Fatalf("hit %s: score %v under GlobalDF above Docs", h.Path, h.Score)
		}
	}
}

// TestWorkerRoutesGated: without Config.Worker the internal surface does
// not exist.
func TestWorkerRoutesGated(t *testing.T) {
	fx := newFixture(t, Config{})
	resp, err := http.Get(fx.ts.URL + "/internal/meta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/internal/meta on a non-worker = %d, want 404", resp.StatusCode)
	}
}

// postSearch posts req to a worker's /internal/search and decodes the
// partial a 200 carries.
func postSearch(t *testing.T, base string, req InternalSearchRequest) (int, *Partial) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/internal/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, readPartial(t, resp)
}

// mustGetPartial fetches a URL, requires 200, and decodes the partial.
func mustGetPartial(t *testing.T, url string) *Partial {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return readPartial(t, resp)
}

func readPartial(t *testing.T, resp *http.Response) *Partial {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePartial(raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustGetJSON fetches a URL, requires 200, and decodes the body.
func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
