package broker

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desksearch"
	"desksearch/internal/server"
	"desksearch/internal/vfs"
)

// staleFixture builds two saved directories over the same file names. In
// the second, every file of shards 1 and 3 has each "report" replaced by
// "budget" — same byte length, same token count, so the manifests agree on
// Docs and Tokens and shards 0 and 2 are the same documents — which moves
// both terms' document frequencies. A worker of shards [1 3] that reloads
// from the first onto the second therefore leaves the fleet in exactly the
// state a single node over the second directory serves.
func staleFixture(t *testing.T) (before, after string) {
	t.Helper()
	words := []string{"report", "budget", "draft", "final", "review", "annual", "forecast"}
	fs := vfs.NewMemFS()
	for i := 0; i < 80; i++ {
		var text []string
		for w := 0; w < 6+i%7; w++ {
			text = append(text, words[(i*7+w*3)%len(words)])
		}
		if i%3 == 0 {
			text = append(text, "report", "report")
		}
		if err := fs.WriteFile(fmt.Sprintf("d%d/f%03d.txt", i%4, i), []byte(strings.Join(text, " "))); err != nil {
			t.Fatal(err)
		}
	}
	save := func() string {
		built, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	before = save()

	// Which files live in shards 1 and 3: everything that subset matches.
	subset, err := desksearch.OpenDirShards(before, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer subset.Close()
	all, err := subset.Query(context.Background(), desksearch.Query{Text: strings.Join(words, " OR ")})
	if err != nil {
		t.Fatal(err)
	}
	if all.Total == 0 || all.Total == 80 {
		t.Fatalf("shards [1 3] hold %d of 80 files; the fixture needs a proper subset", all.Total)
	}
	changed := 0
	for _, h := range all.Hits {
		data, err := fs.ReadFile(h.Path)
		if err != nil {
			t.Fatal(err)
		}
		swapped := strings.ReplaceAll(string(data), "report", "budget")
		if swapped != string(data) {
			changed++
		}
		if err := fs.WriteFile(h.Path, []byte(swapped)); err != nil {
			t.Fatal(err)
		}
	}
	if changed == 0 {
		t.Fatal("no file of shards [1 3] mentions report; the reload would change no df")
	}
	return before, save()
}

// TestBrokerDetectsStaleDF: the df table is never invalidated, only
// verified. Warm it, reload one worker onto an index with different
// document frequencies, and the next BM25 query must notice (the workers'
// own vectors no longer sum to what it sent), re-issue once with the true
// sums, and answer bit-for-bit like a single node over the new state.
func TestBrokerDetectsStaleDF(t *testing.T) {
	before, after := staleFixture(t)

	w02 := startWorker(t, before, []int{0, 2})
	cat13, err := desksearch.OpenDirShards(before, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat13.Close() })
	w13 := httptest.NewServer(server.New(server.Config{
		Catalog: cat13, Worker: true, CacheEntries: -1,
		Rebuild: func() (*desksearch.Catalog, error) { return desksearch.OpenDirShards(after, []int{1, 3}) },
	}).Handler())
	t.Cleanup(w13.Close)
	b, bts := newTestBroker(t, [][]string{{w02.URL}, {w13.URL}}, 0)

	const q = "/search?q=report+OR+budg*&rank=bm25&limit=20"
	equalsSingle := func(dir string) {
		t.Helper()
		single := startSingle(t, dir)
		_, want := getJSON[server.SearchResponse](t, single.URL+q)
		status, got := getJSON[server.SearchResponse](t, bts.URL+q)
		if status != http.StatusOK {
			t.Fatalf("broker status %d", status)
		}
		if got.Total != want.Total || len(got.Hits) != len(want.Hits) || len(want.Hits) == 0 {
			t.Fatalf("broker total %d, %d hits; single node %d, %d", got.Total, len(got.Hits), want.Total, len(want.Hits))
		}
		for i := range want.Hits {
			if got.Hits[i].Path != want.Hits[i].Path || math.Float64bits(got.Hits[i].Score) != math.Float64bits(want.Hits[i].Score) {
				t.Fatalf("hit %d: broker %s %x, single node %s %x", i,
					got.Hits[i].Path, math.Float64bits(got.Hits[i].Score),
					want.Hits[i].Path, math.Float64bits(want.Hits[i].Score))
			}
		}
	}
	counters := func() string {
		return fmt.Sprintf("hits=%d misses=%d stale=%d", b.dfHits.Load(), b.dfMisses.Load(), b.dfStale.Load())
	}

	equalsSingle(before) // asks the workers first
	equalsSingle(before) // answered from the table
	if got := counters(); got != "hits=1 misses=1 stale=0" {
		t.Fatalf("after warming: %s, want hits=1 misses=1 stale=0", got)
	}

	resp, err := http.Post(w13.URL+"/reload?mode=full", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload?mode=full = %d", resp.StatusCode)
	}

	equalsSingle(after) // the table is stale: caught, re-issued, correct
	if got := counters(); got != "hits=2 misses=1 stale=1" {
		t.Fatalf("after the reload: %s, want hits=2 misses=1 stale=1", got)
	}
	equalsSingle(after) // and corrected: one round again
	if got := counters(); got != "hits=3 misses=1 stale=1" {
		t.Fatalf("after the correction: %s, want hits=3 misses=1 stale=1", got)
	}

	// The counters are on both observability surfaces.
	_, st := getJSON[StatsResponse](t, bts.URL+"/stats")
	if st.DFHits != 3 || st.DFMisses != 1 || st.DFStale != 1 {
		t.Fatalf("/stats df counters = %d/%d/%d, want 3/1/1", st.DFHits, st.DFMisses, st.DFStale)
	}
	m := scrapeMetrics(t, bts.URL)
	if m["ds_df_hits_total"] != 3 || m["ds_df_misses_total"] != 1 || m["ds_df_stale_total"] != 1 {
		t.Fatalf("/metrics df counters = %v/%v/%v, want 3/1/1", m["ds_df_hits_total"], m["ds_df_misses_total"], m["ds_df_stale_total"])
	}
}

// rewritePartials serves inner, passing every /internal/search answer
// through edit on its way out.
func rewritePartials(t *testing.T, inner http.Handler, edit func(*server.Partial) []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/internal/search" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Errorf("worker answered %d: %s", rec.Code, rec.Body)
		}
		p, err := server.DecodePartial(rec.Body.Bytes())
		if err != nil {
			t.Errorf("worker partial: %v", err)
			return
		}
		w.Write(edit(p))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func workerHandler(t *testing.T, dir string, shards []int) http.Handler {
	t.Helper()
	cat, err := desksearch.OpenDirShards(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return server.New(server.Config{Catalog: cat, Worker: true, CacheEntries: -1}).Handler()
}

// TestBrokerNeverReturnsUnverifiedPage: a worker whose document
// frequencies differ on every call (an index reloading faster than queries
// complete) fails verification, then fails it again on the one re-issue.
// The broker must answer a retryable 503 — not the page it holds, whose
// scores no single state of the index would have produced.
func TestBrokerNeverReturnsUnverifiedPage(t *testing.T) {
	dir := buildDir(t, 60, false)
	w02 := startWorker(t, dir, []int{0, 2})
	var calls atomic.Int64
	w13 := rewritePartials(t, workerHandler(t, dir, []int{1, 3}), func(p *server.Partial) []byte {
		if len(p.DF.Terms) > 0 {
			p.DF.Terms[0] += int(calls.Add(1))
		}
		return server.AppendPartial(nil, p)
	})
	b, bts := newTestBroker(t, [][]string{{w02.URL}, {w13.URL}}, 0)

	status, body := getJSON[map[string]any](t, bts.URL+"/search?q=report&rank=bm25&limit=5")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want a retryable 503", status, body)
	}
	if _, page := body["hits"]; page {
		t.Fatalf("an unverified page was returned: %v", body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "retry") {
		t.Fatalf("error %q does not tell the client to retry", msg)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("the scatter ran %d times, want 2: the original and exactly one re-issue", got)
	}
	if b.dfStale.Load() != 2 || b.door.QueryErrors.Load() != 1 {
		t.Fatalf("df_stale=%d query_errors=%d, want 2 and 1", b.dfStale.Load(), b.door.QueryErrors.Load())
	}

	// Rankings that use no corpus statistics have nothing to verify.
	if status, _ := getJSON[server.SearchResponse](t, bts.URL+"/search?q=report&rank=tf&limit=5"); status != http.StatusOK {
		t.Fatalf("tf query = %d, want 200", status)
	}
}

// TestBrokerRejectsForeignPartial: a worker from a commit with another
// wire shape (here: the JSON one this layout replaced) is a loud fleet
// error naming the worker, not a misread page.
func TestBrokerRejectsForeignPartial(t *testing.T) {
	dir := buildDir(t, 30, false)
	old := rewritePartials(t, workerHandler(t, dir, nil), func(*server.Partial) []byte {
		return []byte(`{"total":3,"generation":1,"hits":[],"partitions":[]}`)
	})
	_, bts := newTestBroker(t, [][]string{{old.URL}}, 0)
	status, body := getJSON[map[string]any](t, bts.URL+"/search?q=report&limit=5")
	msg, _ := body["error"].(string)
	if status != http.StatusBadGateway || !strings.Contains(msg, "malformed response") || !strings.Contains(msg, old.URL) {
		t.Fatalf("status %d, error %q; want 502 naming %s and \"malformed response\"", status, msg, old.URL)
	}
}

// TestBrokerLastReplicaGetsRequestDeadline: a snippet query through a
// broker over two OpenDirShards workers answers 200 even when it takes far
// longer than anything the group has answered before. The per-attempt
// timeout (8x the recent p95, floored at 50 ms) exists to leave time for a
// failover; a group's last candidate has none to leave it for, so cutting
// it short only turned slow answers into "all 1 replica(s) failed". The
// workers are also told how long the broker will listen.
func TestBrokerLastReplicaGetsRequestDeadline(t *testing.T) {
	dir := buildDir(t, 60, true)
	var slow atomic.Bool
	var budgets atomic.Int64 // worker calls that carried a usable timeout=
	delayed := func(shards []int) string {
		inner := workerHandler(t, dir, shards)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/internal/") && r.URL.Path != "/internal/meta" {
				if d, err := time.ParseDuration(r.URL.Query().Get("timeout")); err == nil && d > 0 && d <= 10*time.Second {
					budgets.Add(1)
				} else {
					t.Errorf("%s carries timeout=%q, want the attempt's remaining budget", r.URL.Path, r.URL.Query().Get("timeout"))
				}
			}
			if slow.Load() && r.URL.Path == "/internal/search" {
				time.Sleep(150 * time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	_, bts := newTestBroker(t, [][]string{{delayed([]int{0, 2})}, {delayed([]int{1, 3})}}, 0)

	// Fast answers first, so each group's window reports a sub-millisecond
	// p95 and the attempt timeout sits at its 50 ms floor.
	for i := 0; i < 5; i++ {
		if status, _ := getJSON[server.SearchResponse](t, bts.URL+"/search?q=report&rank=bm25&limit=5"); status != http.StatusOK {
			t.Fatalf("warm-up query %d = %d", i, status)
		}
	}
	if budgets.Load() == 0 {
		t.Fatal("no worker call carried a timeout")
	}

	slow.Store(true)
	status, resp := getJSON[server.SearchResponse](t, bts.URL+"/search?q=report&rank=bm25&limit=5&snippets=true")
	if status != http.StatusOK {
		t.Fatalf("slow snippet query through a healthy fleet = %d, want 200", status)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].Snippet == nil {
		t.Fatalf("slow snippet query returned no snippets: %+v", resp.Hits)
	}
}

// TestDFTableIsBounded: the table holds at most maxDFEntries keys however
// many distinct terms pass through — full means emptied, not grown — and
// it is safe under the concurrent front-door requests that share it.
func TestDFTableIsBounded(t *testing.T) {
	var tab dfTable
	if tab.lookup(nil, nil) != nil {
		t.Fatal("an empty table answered a lookup; it does not know the corpus counts yet")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxDFEntries; i++ {
				terms, prefixes := []string{fmt.Sprintf("t%d-%d", g, i)}, []string{fmt.Sprintf("p%d-%d", g, i)}
				tab.store(terms, prefixes, &desksearch.DocFreqs{Docs: 9, Tokens: 99, Terms: []int{i}, Prefixes: []int{i + 1}})
				got := tab.lookup(terms, prefixes)
				// Another goroutine's store may have emptied the table in
				// between; what a lookup does return must be what was stored.
				if got != nil && (got.Docs != 9 || got.Tokens != 99 || got.Terms[0] != i || got.Prefixes[0] != i+1) {
					t.Errorf("lookup after store(%d) = %+v", i, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(tab.terms) + len(tab.prefixes); n > maxDFEntries || n == 0 {
		t.Fatalf("table holds %d keys after %d stores, want 1..%d", n, 8*maxDFEntries, maxDFEntries)
	}
	if tab.lookup([]string{"never-stored"}, nil) != nil {
		t.Fatal("lookup of an unknown term answered")
	}
}
