package server

import (
	"bufio"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and parses every sample line into a map from
// series (name plus label set, verbatim) to value.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsAdvanceUnderLoad pins the acceptance criterion: /metrics
// speaks Prometheus text format and its query counters move when
// traffic flows.
func TestMetricsAdvanceUnderLoad(t *testing.T) {
	f := newFixture(t, Config{})

	before := scrape(t, f.ts.URL)
	for _, series := range []string{
		"ds_queries_total",
		"ds_query_errors_total",
		"ds_reloads_total",
		"ds_generation",
		"ds_block_cache_used_bytes",
	} {
		if _, ok := before[series]; !ok {
			t.Errorf("series %q missing from first scrape", series)
		}
	}

	// Load: two queries, the first repeated twice, one malformed
	// query, one evaluation error, and a suggest.
	for _, q := range []string{"report", "alpha", "report", "report"} {
		if code := f.get(t, "/search?q="+url.QueryEscape(q), nil); code != http.StatusOK {
			t.Fatalf("search %q: status %d", q, code)
		}
	}
	if code := f.get(t, "/search?q=report&limit=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed limit: status %d", code)
	}
	if code := f.get(t, `/search?q=%22quarterly+report%22`, nil); code != http.StatusBadRequest {
		t.Fatalf("phrase without positions: status %d", code)
	}
	if code := f.get(t, "/suggest?q=rep", nil); code != http.StatusOK {
		t.Fatalf("suggest: status %d", code)
	}

	after := scrape(t, f.ts.URL)
	// Accepted queries: searches 1–4 plus the failed phrase evaluation
	// plus the suggest; the malformed limit never reaches evaluation.
	wantDelta := map[string]float64{
		"ds_queries_total":      6,
		"ds_query_errors_total": 1,
	}
	for series, want := range wantDelta {
		got := after[series] - before[series]
		if got != want {
			t.Errorf("%s advanced by %v, want %v", series, got, want)
		}
	}

	// The labeled request counter partitions by outcome.
	for series, want := range map[string]float64{
		`ds_requests_total{endpoint="search",outcome="ok"}`:          4,
		`ds_requests_total{endpoint="search",outcome="bad_request"}`: 1,
		`ds_requests_total{endpoint="search",outcome="error"}`:       1,
		`ds_requests_total{endpoint="suggest",outcome="ok"}`:         1,
	} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s advanced by %v, want %v", series, got, want)
		}
	}

	// Latency histograms: one observation per finished search request.
	if got := after[`ds_search_duration_seconds_count`] - before[`ds_search_duration_seconds_count`]; got != 6 {
		t.Errorf("ds_search_duration_seconds_count advanced by %v, want 6", got)
	}
	if after[`ds_search_duration_seconds_bucket{le="+Inf"}`] != after[`ds_search_duration_seconds_count`] {
		t.Errorf("+Inf bucket %v != count %v",
			after[`ds_search_duration_seconds_bucket{le="+Inf"}`], after[`ds_search_duration_seconds_count`])
	}

	// A reload advances the reload counter at scrape time.
	resp, err := http.Post(f.ts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := scrape(t, f.ts.URL)
	if got := final["ds_reloads_total"] - after["ds_reloads_total"]; got != 1 {
		t.Errorf("ds_reloads_total advanced by %v after /reload, want 1", got)
	}
}
