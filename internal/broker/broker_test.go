package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"desksearch"
	"desksearch/internal/server"
	"desksearch/internal/vfs"
)

// buildDir builds a 4-shard corpus and saves it to a temp directory.
func buildDir(t *testing.T, nFiles int, positional bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	vocab := []string{
		"report", "reporting", "reported", "quarterly", "annual", "draft",
		"final", "review", "milk", "flour", "pancake", "allergy", "budget",
		"forecast", "revenue", "index", "search", "parallel", "thread",
	}
	fs := vfs.NewMemFS()
	for i := 0; i < nFiles; i++ {
		var words []string
		n := 5 + rng.Intn(40)
		for w := 0; w < n; w++ {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
		if i%6 == 0 {
			words = append(words, "annual", "report")
		}
		name := fmt.Sprintf("dir%d/file%03d.txt", i%5, i)
		if err := fs.WriteFile(name, []byte(strings.Join(words, " "))); err != nil {
			t.Fatal(err)
		}
	}
	built, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: positional, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startWorker serves a shard subset of dir as a dsearchd worker over
// loopback HTTP.
func startWorker(t *testing.T, dir string, shards []int) *httptest.Server {
	t.Helper()
	cat, err := desksearch.OpenDirShards(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv := server.New(server.Config{Catalog: cat, Worker: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startSingle serves the whole directory as one node — the ground truth
// the distributed responses are compared against.
func startSingle(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	cat, err := desksearch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv := server.New(server.Config{Catalog: cat})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newTestBroker builds a broker over the groups, verifies topology, and
// serves it over loopback HTTP. A positive hedgeAfter pins the hedge
// delay in place of the adaptive policy's.
func newTestBroker(t *testing.T, groups [][]string, hedgeAfter time.Duration) (*Broker, *httptest.Server) {
	t.Helper()
	b, err := New(Config{Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	b.hedge = hedgeAfter
	if err := b.CheckTopology(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(b.Handler())
	t.Cleanup(ts.Close)
	return b, ts
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON[T any](t *testing.T, rawURL string) (int, T) {
	t.Helper()
	var out T
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", rawURL, err)
	}
	return resp.StatusCode, out
}

// TestFrontDoorSameOnNodeAndBroker: a node and a broker over the same
// directory stand behind one front door, so a request the door itself
// refuses — bad /search and /suggest input — gets the same status and the
// same error body from both, and a request it admits gets the same body
// byte for byte once the clocks (took_ms, duration_us) are masked.
func TestFrontDoorSameOnNodeAndBroker(t *testing.T) {
	dir := buildDir(t, 60, true)
	single := startSingle(t, dir)
	w1 := startWorker(t, dir, []int{0, 2})
	w2 := startWorker(t, dir, []int{1, 3})
	_, bts := newTestBroker(t, [][]string{{w1.URL}, {w2.URL}}, 0)

	get := func(base, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	for _, path := range []string{
		"/search",                              // missing q
		"/search?q=",                           // empty q
		"/search?q=report&limit=x",             // bad limit
		"/search?q=report&limit=-1",            // negative limit
		"/search?q=report&offset=-2",           // negative offset
		"/search?q=report&rank=best",           // unknown rank
		"/search?q=%28report",                  // unbalanced paren
		"/search?q=report&timeout=x",           // bad timeout
		"/search?q=report&snippets=maybe",      // bad snippets
		"/search?q=report&max_prefix_terms=-1", // bad prefix cap
		"/search?q=r*&max_prefix_terms=1",      // over-broad prefix: a worker's typed rejection
		"/suggest",                             // missing q
		"/suggest?q=",                          // empty q
		"/suggest?q=re&n=0",                    // zero n
		"/suggest?q=re&n=x",                    // bad n
		"/suggest?q=two+words",                 // multi-term prefix: a worker's rejection
		// limit+offset overflows int: refused before evaluation and any scatter
		"/search?q=report&limit=10&offset=9223372036854775800",
	} {
		ns, nb := get(single.URL, path)
		bs, bb := get(bts.URL, path)
		if ns != http.StatusBadRequest || bs != ns || bb != nb || !strings.Contains(nb, `"error":"`) {
			t.Errorf("%s:\n  node   %d %s  broker %d %s", path, ns, nb, bs, bb)
		}
	}

	clock := regexp.MustCompile(`"(took_ms|duration_us)":[0-9.e+-]+`)
	for _, path := range []string{
		"/search?q=report&rank=bm25&limit=5&snippets=true",
		"/search?q=flour+OR+-report&limit=100", // pure-NOT hits carry no terms
		"/search?q=nosuchterm",                 // no hits is [], not null
		"/suggest?q=re&n=5000",                 // n above the cap is clamped, not refused
		"/suggest?q=zz",                        // no suggestions is [], not null
		"/suggest?q=Re%2A",                     // the prefix echoed normalized
	} {
		ns, nb := get(single.URL, path)
		bs, bb := get(bts.URL, path)
		nb, bb = clock.ReplaceAllString(nb, `"$1":0`), clock.ReplaceAllString(bb, `"$1":0`)
		if ns != http.StatusOK || bs != ns || bb != nb {
			t.Errorf("%s:\n  node   %d %s  broker %d %s", path, ns, nb, bs, bb)
		}
	}
	if _, sr := getJSON[server.SuggestResponse](t, bts.URL+"/suggest?q=Re%2A"); sr.Prefix != "re" || len(sr.Suggestions) == 0 {
		t.Errorf("broker /suggest?q=Re*: prefix %q, %d suggestions; want \"re\" and some", sr.Prefix, len(sr.Suggestions))
	}

	// A request whose own deadline has passed is admitted, reaches the
	// backend under that deadline and fails there: 504 from both, each
	// counting one query error.
	type errorCount struct {
		QueryErrors uint64 `json:"query_errors"`
	}
	const expired = "/search?q=report&timeout=1ns"
	for _, base := range []string{single.URL, bts.URL} {
		_, before := getJSON[errorCount](t, base+"/stats")
		status, body := get(base, expired)
		if want := `{"error":"query timed out after 1ns"}` + "\n"; status != http.StatusGatewayTimeout || body != want {
			t.Errorf("%s%s: %d %q, want 504 %q", base, expired, status, body, want)
		}
		if _, after := getJSON[errorCount](t, base+"/stats"); after.QueryErrors != before.QueryErrors+1 {
			t.Errorf("%s: query_errors %d → %d, want one more", base, before.QueryErrors, after.QueryErrors)
		}
	}
}

// TestBrokerHedgedRequests: with one replica artificially stalled, the
// hedge fires after the configured delay and the healthy replica's
// answer wins — queries stay fast and correct instead of hanging on the
// straggler.
func TestBrokerHedgedRequests(t *testing.T) {
	dir := buildDir(t, 60, true)

	fast := startWorker(t, dir, nil)

	// A second full-directory replica whose /internal/search stalls until
	// the broker abandons it (the request context ends) once the flag
	// flips — topology and health checks keep answering normally.
	var stall atomic.Bool
	cat, err := desksearch.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	inner := server.New(server.Config{Catalog: cat, Worker: true}).Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() && r.URL.Path == "/internal/search" {
			// Drain the body first: the server only notices the broker
			// abandoning the request (and cancels r.Context) once it can
			// read the connection.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(30 * time.Second):
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	b, bts := newTestBroker(t, [][]string{{slow.URL, fast.URL}}, 5*time.Millisecond)
	stall.Store(true)

	start := time.Now()
	const rounds = 6 // rotation alternates primaries, so ~half stall
	for i := 0; i < rounds; i++ {
		status, resp := getJSON[server.SearchResponse](t, bts.URL+"/search?q=report&rank=bm25&limit=10")
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d", i, status)
		}
		if resp.Total == 0 || len(resp.Hits) == 0 {
			t.Fatalf("round %d: empty response %+v", i, resp)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedging did not rescue stalled replicas: %d rounds took %s", rounds, elapsed)
	}
	if b.hedges.Load() == 0 || b.hedgeWins.Load() == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both > 0", b.hedges.Load(), b.hedgeWins.Load())
	}

	// The policy is visible in /stats and /metrics alike.
	status, st := getJSON[StatsResponse](t, bts.URL+"/stats")
	if status != http.StatusOK || st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("/stats = %d %+v, want hedge counters > 0", status, st)
	}
	m := scrapeMetrics(t, bts.URL)
	if m["ds_hedges_total"] == 0 || m["ds_hedge_wins_total"] == 0 {
		t.Fatalf("/metrics hedges=%v hedge_wins=%v, want both > 0",
			m["ds_hedges_total"], m["ds_hedge_wins_total"])
	}
	if m[`ds_requests_total{endpoint="search",outcome="ok"}`] < rounds {
		t.Fatalf("/metrics request counter = %v, want >= %d",
			m[`ds_requests_total{endpoint="search",outcome="ok"}`], rounds)
	}
}

// TestBrokerFailover: killing one replica of a two-replica group
// degrades to success — the broker fails over to the survivor, counts
// it, delists the dead replica, and /healthz stays green.
func TestBrokerFailover(t *testing.T) {
	dir := buildDir(t, 60, false)
	w1 := startWorker(t, dir, nil)
	w2 := startWorker(t, dir, nil)
	b, bts := newTestBroker(t, [][]string{{w1.URL, w2.URL}}, 0)

	w1.Close() // the fleet loses a replica after topology verification

	for i := 0; i < 4; i++ { // rotation guarantees the dead one is tried
		status, resp := getJSON[server.SearchResponse](t, bts.URL+"/search?q=report&limit=5")
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d", i, status)
		}
		if resp.Total == 0 {
			t.Fatalf("round %d: empty response", i)
		}
	}
	if b.failovers.Load() == 0 {
		t.Fatal("no failover was recorded against a dead replica")
	}

	status, st := getJSON[StatsResponse](t, bts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("/stats status %d", status)
	}
	if st.Failovers == 0 {
		t.Fatal("/stats does not surface the failovers")
	}
	var deadSeen bool
	for _, g := range st.Groups {
		for _, r := range g.Replicas {
			if r.URL == w1.URL && !r.Healthy {
				deadSeen = true
			}
		}
	}
	if !deadSeen {
		t.Fatalf("/stats does not show the dead replica as unhealthy: %+v", st.Groups)
	}
	// One replica per group still stands: the broker is degraded, not down.
	status, _ = getJSON[map[string]any](t, bts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz = %d with a live replica remaining, want 200", status)
	}
}

// TestHealthSweepDemotesCorruptReplica: a worker whose query read a
// corrupt posting block answers /healthz 503, so the broker's health sweep
// marks it unhealthy and its group tries the clean replica first.
func TestHealthSweepDemotesCorruptReplica(t *testing.T) {
	clean, flipped := buildDir(t, 40, false), buildDir(t, 40, false)
	// "thread" sorts last in every shard's dictionary, so its posting
	// block ends the segment file.
	seg := filepath.Join(flipped, "shard-0000.dsix")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	good, bad := startWorker(t, clean, nil), startWorker(t, flipped, nil)
	b, _ := newTestBroker(t, [][]string{{good.URL, bad.URL}}, 0)

	if status, _ := getJSON[map[string]any](t, bad.URL+"/search?q=thread"); status != http.StatusInternalServerError {
		t.Fatalf("query over the flipped block: status %d, want 500", status)
	}
	b.healthSweep(context.Background(), time.Second)
	for _, r := range b.groups[0].replicas {
		if want := r.url == good.URL; r.healthy.Load() != want {
			t.Fatalf("after the sweep %s healthy = %v, want %v", r.url, !want, want)
		}
	}
	for i := 0; i < 2; i++ { // whatever the rotation, the clean replica leads
		if first := b.groups[0].candidates()[0]; first.url != good.URL {
			t.Fatalf("candidate order starts with %s, want the clean %s", first.url, good.URL)
		}
	}
}

// TestBrokerTopologyValidation: incoherent fleets are refused at startup.
func TestBrokerTopologyValidation(t *testing.T) {
	dir := buildDir(t, 40, false)
	w02 := startWorker(t, dir, []int{0, 2})
	w13 := startWorker(t, dir, []int{1, 3})
	w02b := startWorker(t, dir, []int{0, 2})

	check := func(groups [][]string) error {
		b, err := New(Config{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		return b.CheckTopology(context.Background())
	}
	if err := check([][]string{{w02.URL}, {w02b.URL}}); err == nil || !strings.Contains(err.Error(), "claimed by both") {
		t.Fatalf("overlapping groups accepted: %v", err)
	}
	if err := check([][]string{{w02.URL}}); err == nil || !strings.Contains(err.Error(), "served by no group") {
		t.Fatalf("uncovered shards accepted: %v", err)
	}
	if err := check([][]string{{w02.URL, w13.URL}}); err == nil || !strings.Contains(err.Error(), "replicas disagree") {
		t.Fatalf("mismatched replicas accepted: %v", err)
	}
	if err := check([][]string{{w02.URL}, {w13.URL}}); err != nil {
		t.Fatalf("valid topology refused: %v", err)
	}

	// Workers over different directories disagree on the manifest.
	other := buildDir(t, 25, false)
	o13 := startWorker(t, other, []int{1, 3})
	if err := check([][]string{{w02.URL}, {o13.URL}}); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mixed directories accepted: %v", err)
	}
}

// TestBrokerDeterministicErrors: a worker-side 4xx (here: a phrase query
// against a positionless index) propagates to the client as the same
// 4xx, not as a retried-then-502 fleet error.
func TestBrokerDeterministicErrors(t *testing.T) {
	dir := buildDir(t, 30, false) // no positions: phrase queries are 400s
	w1 := startWorker(t, dir, []int{0, 2})
	w2 := startWorker(t, dir, []int{1, 3})
	b, bts := newTestBroker(t, [][]string{{w1.URL}, {w2.URL}}, 0)

	status, body := getJSON[map[string]any](t, bts.URL+`/search?q=%22annual+report%22&limit=5`)
	if status != http.StatusBadRequest {
		t.Fatalf("phrase query on positionless fleet = %d (%v), want 400", status, body)
	}
	if body["code"] != string(desksearch.CodeNoPositions) {
		t.Fatalf("worker error code %v not forwarded through broker, want %q", body["code"], desksearch.CodeNoPositions)
	}
	if b.failovers.Load() != 0 {
		t.Fatalf("deterministic 4xx caused %d failovers, want 0", b.failovers.Load())
	}

	// Broker-local parse errors never reach the fleet.
	status, _ = getJSON[map[string]any](t, bts.URL+"/search?q=report&rank=nonsense")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown ranking = %d, want 400", status)
	}
}

// TestBrokerLoneReplicaFailures: a group of one replica is called on the
// goroutine that asked, and settles by the same rules as a raced one. Its
// 4xx reaches the client with the worker's status and code; a replica
// whose listener is gone is a 502, and /stats shows it unhealthy.
func TestBrokerLoneReplicaFailures(t *testing.T) {
	dir := buildDir(t, 30, false) // no positions: phrase queries are 400s
	w02 := startWorker(t, dir, []int{0, 2})
	w13 := startWorker(t, dir, []int{1, 3})
	b, bts := newTestBroker(t, [][]string{{w02.URL}, {w13.URL}}, 0)

	status, body := getJSON[map[string]any](t, bts.URL+`/search?q=%22annual+report%22&limit=5`)
	if status != http.StatusBadRequest || body["code"] != string(desksearch.CodeNoPositions) {
		t.Fatalf("phrase query on a positionless fleet = %d %v, want 400 with code %q", status, body, desksearch.CodeNoPositions)
	}

	w13.Close()
	status, body = getJSON[map[string]any](t, bts.URL+"/search?q=report&limit=5")
	if status != http.StatusBadGateway {
		t.Fatalf("/search with a closed lone replica = %d %v, want 502", status, body)
	}
	if b.failovers.Load() != 0 || b.hedges.Load() != 0 {
		t.Fatalf("failovers=%d hedges=%d with no replica to turn to, want 0 and 0", b.failovers.Load(), b.hedges.Load())
	}
	_, st := getJSON[StatsResponse](t, bts.URL+"/stats")
	for _, g := range st.Groups {
		for _, r := range g.Replicas {
			if want := r.URL != w13.URL; r.Healthy != want {
				t.Fatalf("/stats shows %s healthy=%v, want %v", r.URL, r.Healthy, want)
			}
		}
	}
}

// TestBrokerFailoverIsNoHedgeWin: the replica that answers after a
// failover won no race, so hedge_wins counts only hedged attempts that
// beat their primary.
func TestBrokerFailoverIsNoHedgeWin(t *testing.T) {
	dir := buildDir(t, 30, false)
	w1, w2 := startWorker(t, dir, nil), startWorker(t, dir, nil)
	b, bts := newTestBroker(t, [][]string{{w1.URL, w2.URL}}, 0)
	w1.Close()
	for i := 0; i < 4; i++ { // rotation guarantees the dead one leads once
		if status, _ := getJSON[server.SearchResponse](t, bts.URL+"/search?q=report&limit=5"); status != http.StatusOK {
			t.Fatalf("round %d: status %d", i, status)
		}
	}
	if b.failovers.Load() == 0 || b.hedges.Load() != 0 || b.hedgeWins.Load() != 0 {
		t.Fatalf("failovers=%d hedges=%d hedge_wins=%d, want >0, 0, 0",
			b.failovers.Load(), b.hedges.Load(), b.hedgeWins.Load())
	}
}
