package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"desksearch"
	"desksearch/internal/vfs"
)

// fixture builds a catalog over an in-memory corpus and a test server
// whose update source re-diffs that same filesystem — the daemon's watch
// wiring, minus the host directory.
type fixture struct {
	fs  *vfs.MemFS
	cat *desksearch.Catalog
	srv *Server
	ts  *httptest.Server
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	fs := vfs.NewMemFS()
	files := map[string]string{
		"docs/report.txt": "quarterly report alpha beta",
		"docs/draft.txt":  "draft report beta",
		"notes/todo.txt":  "alpha gamma",
	}
	for name, content := range files {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Extractors: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = cat
	if cfg.Update == nil {
		cfg.Update = func() (desksearch.UpdateStats, error) { return cat.Update(fs, ".") }
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{fs: fs, cat: cat, srv: srv, ts: ts}
}

// TestPhraseQueriesOverHTTP drives the daemon end-to-end with quoted
// phrases: a positional catalog answers them, and a position-free catalog
// reports the clear client error rather than degrading to AND.
func TestPhraseQueriesOverHTTP(t *testing.T) {
	fs := vfs.NewMemFS()
	for name, content := range map[string]string{
		"docs/a.txt": "the annual report was filed",
		"docs/b.txt": "report annual mixup",
	} {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Catalog: cat})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out SearchResponse
	resp, err := http.Get(ts.URL + `/search?q=` + url.QueryEscape(`"annual report"`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("phrase query status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Total != 1 || len(out.Hits) != 1 || out.Hits[0].Path != "docs/a.txt" {
		t.Fatalf("phrase query → %+v", out)
	}
	if out.Query != `"annual report"` {
		t.Fatalf("canonical query = %q", out.Query)
	}

	// The same phrase on the default (position-free) fixture catalog is a
	// client error with an actionable message.
	f := newFixture(t, Config{})
	var e struct {
		Error string `json:"error"`
	}
	if code := f.get(t, `/search?q=`+url.QueryEscape(`"quarterly report"`), &e); code != http.StatusBadRequest {
		t.Fatalf("phrase on non-positional catalog: status %d (%+v)", code, e)
	}
	if !strings.Contains(e.Error, "without positions") {
		t.Fatalf("error %q does not explain missing positions", e.Error)
	}
}

func (f *fixture) get(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (f *fixture) post(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Post(f.ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestSearchEndpoint(t *testing.T) {
	f := newFixture(t, Config{})
	var sr SearchResponse
	if code := f.get(t, "/search?q=report+-draft", &sr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if sr.Total != 1 || len(sr.Hits) != 1 || sr.Hits[0].Path != "docs/report.txt" {
		t.Fatalf("unexpected response: %+v", sr)
	}
	if sr.Query != "(report AND (NOT draft))" {
		t.Errorf("canonical query = %q", sr.Query)
	}
	if len(sr.Partitions) != 2 {
		t.Errorf("partitions = %+v, want 2 entries", sr.Partitions)
	}
}

func TestSearchRankingAndPaging(t *testing.T) {
	f := newFixture(t, Config{})
	var sr SearchResponse
	if code := f.get(t, "/search?q=beta&rank=tf&limit=1&offset=1", &sr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if sr.Total != 2 || len(sr.Hits) != 1 {
		t.Fatalf("paging wrong: %+v", sr)
	}
}

func TestSearchValidation(t *testing.T) {
	f := newFixture(t, Config{})
	for _, path := range []string{
		"/search",                   // missing q
		"/search?q=",                // empty q
		"/search?q=alpha&limit=x",   // bad limit
		"/search?q=alpha&limit=-1",  // negative limit
		"/search?q=alpha&offset=-2", // negative offset
		"/search?q=alpha&rank=best", // unknown rank
		"/search?q=%28alpha",        // unbalanced paren
		"/search?q=alpha&timeout=x", // bad timeout
	} {
		var er struct {
			Error string `json:"error"`
		}
		if code := f.get(t, path, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		if er.Error == "" {
			t.Errorf("%s: missing error message", path)
		}
	}
}

// TestReloadAdvancesGeneration pins the staleness guarantee end to end:
// the moment a reload that changed the corpus completes, /search answers
// from the new generation, and a reload that changed nothing keeps it.
func TestReloadAdvancesGeneration(t *testing.T) {
	f := newFixture(t, Config{})
	var before SearchResponse
	f.get(t, "/search?q=gamma", &before)
	if before.Total != 1 {
		t.Fatalf("seed corpus: gamma total = %d", before.Total)
	}

	if err := f.fs.WriteFile("docs/new.txt", []byte("gamma gamma delta")); err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	if code := f.post(t, "/reload", &rr); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	if rr.Added != 1 {
		t.Fatalf("reload stats: %+v", rr)
	}
	if rr.Generation == before.Generation {
		t.Fatal("reload did not advance the generation")
	}

	var after SearchResponse
	f.get(t, "/search?q=gamma", &after)
	if after.Generation != rr.Generation {
		t.Fatalf("post-reload query answered at generation %d, reload committed %d", after.Generation, rr.Generation)
	}
	if after.Total != 2 {
		t.Fatalf("post-reload gamma total = %d, want 2", after.Total)
	}

	// A no-op reload keeps the generation.
	if code := f.post(t, "/reload", &rr); code != http.StatusOK {
		t.Fatalf("no-op reload status %d", code)
	}
	var same SearchResponse
	f.get(t, "/search?q=gamma", &same)
	if rr.Generation != after.Generation || same.Generation != after.Generation || same.Total != 2 {
		t.Errorf("no-op reload: generation %d, query at %d with total %d; want generation %d, total 2",
			rr.Generation, same.Generation, same.Total, after.Generation)
	}
}

func TestFullReloadSwapsCatalog(t *testing.T) {
	var f *fixture
	f = newFixture(t, Config{
		Rebuild: func() (*desksearch.Catalog, error) {
			return desksearch.IndexFS(f.fs, ".", desksearch.Options{Extractors: 1, Shards: 2})
		},
	})
	var before SearchResponse
	f.get(t, "/search?q=alpha", &before)
	if err := f.fs.WriteFile("docs/more.txt", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	if code := f.post(t, "/reload?mode=full", &rr); code != http.StatusOK {
		t.Fatalf("full reload status %d", code)
	}
	if rr.Mode != "full" || rr.Generation == before.Generation {
		t.Fatalf("reload response: %+v", rr)
	}
	var after SearchResponse
	f.get(t, "/search?q=alpha", &after)
	if after.Total != before.Total+1 {
		t.Fatalf("after full reload: total = %d, want %d", after.Total, before.Total+1)
	}
}

func TestReloadDisabled(t *testing.T) {
	fs := vfs.NewMemFS()
	if err := fs.WriteFile("a.txt", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Extractors: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Catalog: cat})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if _, err := srv.Reload(); err == nil || !strings.Contains(err.Error(), "no update source") {
		t.Errorf("Reload without an update source = %v, want a no-update-source error", err)
	}
	// Watch has nothing to poll: it returns at once, before its first
	// tick, with a context that is never done.
	done := make(chan struct{})
	go func() {
		srv.Watch(context.Background(), time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Watch without an update source did not return")
	}
}

func TestHealthzAndStats(t *testing.T) {
	f := newFixture(t, Config{})
	var hz struct {
		Status string `json:"status"`
	}
	if code := f.get(t, "/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, hz)
	}
	var st StatsResponse
	f.get(t, "/stats", &st)
	if st.Files != 3 || st.Indices != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Terms == 0 || st.Postings == 0 {
		t.Errorf("stats missing term counts: %+v", st)
	}
}

func TestMethodDiscipline(t *testing.T) {
	f := newFixture(t, Config{})
	// GET /reload and POST /search must both be rejected.
	resp, err := http.Get(f.ts.URL + "/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(f.ts.URL+"/search?q=alpha", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /search: %d, want 405", resp.StatusCode)
	}
}

// TestSearchDuringReloadRace is the acceptance hammer: concurrent /search
// load while reloads swap the corpus underneath, under the race detector.
// Every response must decode, every result must be internally consistent,
// and after the final reload the daemon must answer from the final state.
func TestSearchDuringReloadRace(t *testing.T) {
	f := newFixture(t, Config{})
	queries := []string{
		"/search?q=alpha",
		"/search?q=report+-draft",
		"/search?q=alpha+OR+beta&rank=tf",
		"/search?q=churn",
		"/search?q=-gamma&limit=5",
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(f.ts.URL + queries[(i+w)%len(queries)])
				if err != nil {
					t.Error(err)
					return
				}
				var sr SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
				if len(sr.Hits) > sr.Total {
					t.Errorf("inconsistent response: %d hits, total %d", len(sr.Hits), sr.Total)
					return
				}
			}
		}(w)
	}

	// Reloader: churn one file through distinct contents, reloading after
	// each write, then delete it and reload once more.
	const rounds = 30
	for i := 0; i < rounds; i++ {
		content := fmt.Sprintf("churn round%d %s", i, strings.Repeat("alpha ", i%3))
		if err := f.fs.WriteFile("notes/churn.txt", []byte(content)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.srv.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.fs.Remove("notes/churn.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Reload(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// The deleted file's terms must be gone the moment the last reload
	// returned — no stale generation may answer.
	var sr SearchResponse
	f.get(t, "/search?q=churn", &sr)
	if sr.Total != 0 {
		t.Fatalf("post-reload churn query: %+v (stale generation served)", sr)
	}
	if sr.Generation != f.cat.Generation() {
		t.Fatalf("answered at generation %d, current is %d", sr.Generation, f.cat.Generation())
	}
	var st StatsResponse
	f.get(t, "/stats", &st)
	if st.Files != 3 {
		t.Errorf("final corpus: %d files, want 3", st.Files)
	}
	if st.Reloads != rounds+1 {
		t.Errorf("reload counter = %d, want %d", st.Reloads, rounds+1)
	}
}

// TestWatchPicksUpChanges drives the -watch mode: a background poller must
// notice a write and serve the new state without an explicit /reload.
func TestWatchPicksUpChanges(t *testing.T) {
	f := newFixture(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.srv.Watch(ctx, 5*time.Millisecond)

	if err := f.fs.WriteFile("notes/fresh.txt", []byte("zeta omega")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sr SearchResponse
		f.get(t, "/search?q=zeta", &sr)
		if sr.Total == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch never picked up the new file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
