package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
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

	status, out := postSearch(t, fx.ts.URL, "q=report&rank=bm25&limit=10", nil)
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
	// Whatever the ranking.
	if status, out = postSearch(t, fx.ts.URL, "q=report+forecast&rank=tf&limit=10", nil); status != http.StatusOK {
		t.Fatalf("/internal/search tf status %d", status)
	}
	if fmt.Sprint(out.DF) != fmt.Sprint(df) {
		t.Fatalf("tf partial df = %+v, /internal/df = %+v", out.DF, df)
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

// TestWorkerSearchBodyBounded: a scatter request one byte over
// MaxBodyBytes is a 413 with the usual JSON error, and reaches no
// evaluation. Its body is generated as it is read, and the declared
// length refuses it before a byte of it is.
func TestWorkerSearchBodyBounded(t *testing.T) {
	fx, _ := workerFixture(t)
	before := fx.srv.door.Queries.Load()
	req := httptest.NewRequest(http.MethodPost, "/internal/search", io.LimitReader(zeros{}, MaxBodyBytes+1))
	req.ContentLength = MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	fx.srv.Handler().ServeHTTP(rec, req)
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusRequestEntityTooLarge || e.Error == "" {
		t.Fatalf("status %d, body %q (%v); want 413 and a JSON error", rec.Code, rec.Body.Bytes(), err)
	}
	if after := fx.srv.door.Queries.Load(); after != before {
		t.Fatalf("an over-cap request moved Queries from %d to %d", before, after)
	}
	// One the cap admits still evaluates.
	if status, _ := postSearch(t, fx.ts.URL, "q=report", nil); status != http.StatusOK {
		t.Fatalf("a small request after the refusal: status %d", status)
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestWorkerSearchWithGlobalDF: scoring under broker-supplied statistics
// changes the BM25 idf inputs, and a mis-shaped vector is a 400.
func TestWorkerSearchWithGlobalDF(t *testing.T) {
	fx, _ := workerFixture(t)

	post := func(df *desksearch.DocFreqs) (int, *Partial) {
		return postSearch(t, fx.ts.URL, "q=report&rank=bm25&limit=5", df)
	}

	// A df vector matching the query shape is accepted; corpus-global
	// values equal to the local ones reproduce the local scores.
	status, out := post(&desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{4}})
	if status != http.StatusOK {
		t.Fatalf("well-shaped GlobalDF rejected: %d", status)
	}
	// The vector that comes back is the worker's own, not an echo of the
	// one it was handed: shards 0 and 2 hold fewer than all four "report"s.
	if len(out.DF.Terms) != 1 || out.DF.Terms[0] >= 4 || out.DF.Docs != 6 {
		t.Fatalf("partial df under GlobalDF = %+v, want the local vector", out.DF)
	}

	// Wrong arity for the query → deterministic client error.
	status, _ = post(&desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{4, 9}})
	if status != http.StatusBadRequest {
		t.Fatalf("mis-shaped GlobalDF = %d, want 400", status)
	}

	// A negative count would score NaN → client error, not a 200 partial.
	// The df block writes counts as uvarints, so a negative one is the
	// two's-complement value, which overflows int on the way back in.
	for _, df := range []*desksearch.DocFreqs{
		{Docs: 6, Tokens: 24, Terms: []int{-1}},
		{Docs: -6, Tokens: 24, Terms: []int{4}},
	} {
		if status, _ = post(df); status != http.StatusBadRequest {
			t.Fatalf("negative GlobalDF %+v = %d, want 400", df, status)
		}
	}
	// A frequency above Docs is what a stale broker table sends after
	// deletions; it is scored (finitely), and verify-then-return fixes it.
	status, out = post(&desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{9}})
	if status != http.StatusOK {
		t.Fatalf("GlobalDF above Docs = %d, want 200", status)
	}
	for _, h := range out.Hits {
		if math.IsNaN(h.Score) || math.IsInf(h.Score, 0) {
			t.Fatalf("hit %s: score %v under GlobalDF above Docs", h.Path, h.Score)
		}
	}
}

// TestWorkerSearchBodyMalformed: a body that is not exactly one df block
// behind the partial's version byte is a 400 naming what is wrong, and
// reaches no evaluation. The body is read before the URL, so the JSON
// request a broker from before the binary body sent, with its query in
// the body and none in the URL, is refused on its first byte with a
// message that names the layout, not with "missing q parameter".
func TestWorkerSearchBodyMalformed(t *testing.T) {
	fx, _ := workerFixture(t)
	good := AppendSearchBody(nil, &desksearch.DocFreqs{Docs: 6, Tokens: 24, Terms: []int{4}})
	for _, tc := range []struct {
		name, body, want string
	}{
		{"json", `{"query":"report","limit":5,"rank":"bm25","df":{"docs":6,"tokens":24,"terms":[4]}}`, "first byte '{'; want a df block in the partial layout, version 1"},
		{"other version", "\x02" + string(good[1:]), "partial layout"},
		{"version only", "\x01", "invalid request body"},
		{"truncated", string(good[:len(good)-1]), "invalid request body"},
		{"trailing byte", string(good) + "\x00", "trailing bytes"},
	} {
		before := fx.srv.door.Queries.Load()
		resp, err := http.Post(fx.ts.URL+"/internal/search", "application/octet-stream", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: status %d, error %q (%v); want 400 naming %q", tc.name, resp.StatusCode, e.Error, err, tc.want)
		}
		if after := fx.srv.door.Queries.Load(); after != before {
			t.Errorf("%s: a refused body moved Queries from %d to %d", tc.name, before, after)
		}
	}
}

// TestWorkerParamsRoundTrip holds the two ends of the hop to each other:
// the query a worker reads back from a broker's rendered parameters has
// the cache key of the request the broker rendered, with limit+offset as
// its limit and no offset, and the df block a body carries reads back as
// the vector written.
func TestWorkerParamsRoundTrip(t *testing.T) {
	var queries []desksearch.Query
	for _, prefix := range []string{"", "docs/", "a&b=c", "100%", "a+b c", "nul\x00byte", "\xff\xfe", "résumé/", "?q=x&limit=1#f"} {
		for _, rank := range []desksearch.Ranking{desksearch.RankCount, desksearch.RankTF, desksearch.RankBM25} {
			queries = append(queries, desksearch.Query{Text: `"annual report" OR repor* -draft`, Limit: 7, Offset: 3, Ranking: rank, PathPrefix: prefix})
		}
	}
	queries = append(queries,
		desksearch.Query{Text: "report", Limit: 1},
		desksearch.Query{Text: "(a OR b) c", Limit: 10, Snippets: true, Ranking: desksearch.RankBM25},
		desksearch.Query{Text: "x* y*", Limit: 1000, Offset: 990, MaxPrefixTerms: 5},
		desksearch.Query{Text: "NOT draft", Limit: 2, Snippets: true, MaxPrefixTerms: 1, PathPrefix: "&=%+ \x00é"},
	)
	for _, q := range queries {
		q, err := q.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		params, err := url.ParseQuery(WorkerParams(q))
		if err != nil {
			t.Fatalf("%+v: rendered parameters do not parse: %v", q, err)
		}
		back, err := readQuery(params)
		if err == nil {
			back, err = back.Normalize()
		}
		if err != nil {
			t.Fatalf("%+v: worker refused the rendered parameters: %v", q, err)
		}
		want := q
		want.Limit, want.Offset = q.Limit+q.Offset, 0
		if got, w := back.CacheKey(), want.CacheKey(); got != w {
			t.Errorf("round trip of %q:\n got %q\nwant %q", WorkerParams(q), got, w)
		}
	}
	for _, df := range []*desksearch.DocFreqs{
		{},
		{Docs: 6, Tokens: 24, Terms: []int{4}},
		{Docs: 1 << 40, Tokens: 1<<64 - 1, Terms: []int{0, 1 << 40, 3}, Prefixes: []int{9, 0}},
	} {
		back, err := readSearchBody(AppendSearchBody(nil, df))
		if err != nil || !reflect.DeepEqual(back, df) {
			t.Errorf("df %+v read back as %+v, %v", df, back, err)
		}
	}
	if df, err := readSearchBody(nil); df != nil || err != nil {
		t.Errorf("an empty body read as %+v, %v; want no statistics", df, err)
	}
}

// TestWorkerMetaCountsLiveFiles: /internal/meta reports the live file
// count /stats does, before and after an update that adds and deletes
// files.
func TestWorkerMetaCountsLiveFiles(t *testing.T) {
	fx := newFixture(t, Config{Worker: true})
	check := func(want int) {
		t.Helper()
		var meta WorkerMeta
		var st StatsResponse
		fx.get(t, "/internal/meta", &meta)
		fx.get(t, "/stats", &st)
		if meta.Files != want || st.Files != want {
			t.Fatalf("/internal/meta files %d, /stats files %d; want %d", meta.Files, st.Files, want)
		}
	}
	check(3)
	for _, name := range []string{"docs/a.txt", "notes/b.txt"} {
		if err := fx.fs.WriteFile(name, []byte("alpha delta")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.fs.Remove("notes/todo.txt"); err != nil {
		t.Fatal(err)
	}
	if st, err := fx.cat.Update(fx.fs, "."); err != nil || st.Added != 2 || st.Deleted != 1 {
		t.Fatalf("Update = %+v, %v; want 2 added, 1 deleted", st, err)
	}
	check(4)
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

// postSearch posts a query's URL parameters to a worker's
// /internal/search, with df as the body when it is set, and decodes the
// partial a 200 carries.
func postSearch(t *testing.T, base, params string, df *desksearch.DocFreqs) (int, *Partial) {
	t.Helper()
	var body []byte
	if df != nil {
		body = AppendSearchBody(nil, df)
	}
	resp, err := http.Post(base+"/internal/search?"+params, "application/octet-stream", bytes.NewReader(body))
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
