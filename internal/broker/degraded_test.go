package broker

import (
	"bufio"
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeMetrics fetches /metrics and parses every sample line into a map
// from series (name plus label set, verbatim) to value.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
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

// TestBrokerDegradedGroup pins the whole failure surface when an entire
// replica group goes dark: /search degrades to an explicit fleet error
// (not a hang, not a silent partial answer), /stats counts the failover
// attempts and errors, /healthz flips to 503 naming the dark group, and
// /metrics exposes the same counters in Prometheus text format.
func TestBrokerDegradedGroup(t *testing.T) {
	dir := buildDir(t, 60, false)
	w0 := startWorker(t, dir, []int{0, 2})
	w1a := startWorker(t, dir, []int{1, 3})
	w1b := startWorker(t, dir, []int{1, 3})
	b, bts := newTestBroker(t, [][]string{{w0.URL}, {w1a.URL, w1b.URL}}, 0)

	// Kill every replica of group 1 after topology verification.
	w1a.Close()
	w1b.Close()

	// A query cannot be answered: half the shards are unreachable. The
	// broker tries both replicas (a failover) and then surfaces a 502 —
	// merging only group 0's partials would silently drop documents.
	status, body := getJSON[map[string]any](t, bts.URL+"/search?q=report&limit=5")
	if status != http.StatusBadGateway {
		t.Fatalf("/search with a dark group = %d (%v), want 502", status, body)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Fatalf("/search error body carries no message: %v", body)
	}
	if b.failovers.Load() == 0 {
		t.Fatal("no failover recorded while both replicas of the group were tried")
	}
	if b.door.QueryErrors.Load() == 0 {
		t.Fatal("query error not counted")
	}

	// /stats surfaces the same counters.
	stStatus, st := getJSON[StatsResponse](t, bts.URL+"/stats")
	if stStatus != http.StatusOK {
		t.Fatalf("/stats status %d", stStatus)
	}
	if st.Failovers == 0 || st.QueryErrors == 0 {
		t.Fatalf("/stats failovers=%d query_errors=%d, want both > 0", st.Failovers, st.QueryErrors)
	}

	// The health sweep notices both replicas are gone; /healthz then
	// reports degraded and names the dark group.
	b.healthSweep(context.Background(), time.Second)
	hStatus, hz := getJSON[map[string]any](t, bts.URL+"/healthz")
	if hStatus != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d with a dark group, want 503", hStatus)
	}
	if hz["status"] != "degraded" {
		t.Fatalf(`/healthz status = %v, want "degraded"`, hz["status"])
	}
	dark, _ := hz["dark_groups"].([]any)
	if len(dark) != 1 || dark[0] != float64(1) {
		t.Fatalf("/healthz dark_groups = %v, want [1]", hz["dark_groups"])
	}

	// /metrics agrees with /stats and the health sweep.
	m := scrapeMetrics(t, bts.URL)
	if m["ds_failovers_total"] == 0 {
		t.Error("ds_failovers_total did not advance")
	}
	if m["ds_query_errors_total"] == 0 {
		t.Error("ds_query_errors_total did not advance")
	}
	if got := m[`ds_requests_total{endpoint="search",outcome="error"}`]; got == 0 {
		t.Error(`ds_requests_total{endpoint="search",outcome="error"} did not advance`)
	}
	if got := m["ds_group_1_healthy_replicas"]; got != 0 {
		t.Errorf("ds_group_1_healthy_replicas = %v, want 0", got)
	}
	if got := m["ds_group_0_healthy_replicas"]; got != 1 {
		t.Errorf("ds_group_0_healthy_replicas = %v, want 1", got)
	}

	// Group 0's survivor keeps the rest of the surface alive: suggest
	// still fails (needs every group) but stats and metrics never do.
	if sStatus, _ := getJSON[map[string]any](t, bts.URL+"/suggest?q=re"); sStatus == http.StatusOK {
		t.Fatal("/suggest succeeded with a dark group, want an error")
	}
}
