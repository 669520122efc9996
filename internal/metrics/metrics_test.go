package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ds_queries_total", "Total queries.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	out := render(r)
	want := "# HELP ds_queries_total Total queries.\n" +
		"# TYPE ds_queries_total counter\n" +
		"ds_queries_total 5\n"
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestCounterVecSharesChildren(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("ds_requests_total", "Requests by endpoint and outcome.", "endpoint", "outcome")
	cv.With("search", "ok").Inc()
	cv.With("search", "ok").Inc()
	cv.With("search", "error").Inc()
	cv.With("suggest", "ok").Add(3)

	out := render(r)
	for _, line := range []string{
		`ds_requests_total{endpoint="search",outcome="ok"} 2`,
		`ds_requests_total{endpoint="search",outcome="error"} 1`,
		`ds_requests_total{endpoint="suggest",outcome="ok"} 3`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	// Children render in first-use order, so output is deterministic.
	if i, j := strings.Index(out, `outcome="ok"} 2`), strings.Index(out, `outcome="error"}`); i > j {
		t.Errorf("label sets not in first-use order:\n%s", out)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("ds_x_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label arity mismatch")
		}
	}()
	cv.With("only-one")
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ds_dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.NewCounter("ds_dup", "second")
}

func TestGaugeAndFuncMetrics(t *testing.T) {
	r := NewRegistry()
	var hits float64 = 7
	r.NewCounterFunc("ds_cache_hits_total", "Cache hits.", func() float64 { return hits })
	r.NewGaugeFunc("ds_generation", "Reload generation.", func() float64 { return 3 })

	out := render(r)
	for _, line := range []string{
		"# TYPE ds_cache_hits_total counter",
		"ds_cache_hits_total 7",
		"# TYPE ds_generation gauge",
		"ds_generation 3",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	// Func metrics sample at scrape time: a later change must show up.
	hits = 9
	if !strings.Contains(render(r), "ds_cache_hits_total 9\n") {
		t.Errorf("func counter did not re-sample:\n%s", render(r))
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("ds_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	out := render(r)
	want := "# HELP ds_latency_seconds Latency.\n" +
		"# TYPE ds_latency_seconds histogram\n" +
		"ds_latency_seconds_bucket{le=\"0.001\"} 1\n" +
		"ds_latency_seconds_bucket{le=\"0.01\"} 3\n" +
		"ds_latency_seconds_bucket{le=\"0.1\"} 4\n" +
		"ds_latency_seconds_bucket{le=\"+Inf\"} 5\n" +
		"ds_latency_seconds_sum 5.0605\n" +
		"ds_latency_seconds_count 5\n"
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("ds_h", "h", []float64{1, 2})
	h.Observe(1) // exactly on a bound counts in that bucket (le semantics)
	out := render(r)
	if !strings.Contains(out, `ds_h_bucket{le="1"} 1`+"\n") {
		t.Fatalf("observation at bound not counted le-inclusively:\n%s", out)
	}
}

func TestHelpAndLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("ds_esc", "line1\nline2 with \\ slash", "q")
	cv.With(`he said "hi"` + "\nbye").Inc()
	out := render(r)
	if !strings.Contains(out, `# HELP ds_esc line1\nline2 with \\ slash`+"\n") {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `ds_esc{q="he said \"hi\"\nbye"} 1`+"\n") {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ds_c", "c")
	cv := r.NewCounterVec("ds_cv", "cv", "k")
	h := r.NewHistogram("ds_hist", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				cv.With("a").Inc()
				h.Observe(float64(j) / 1000)
				if j%100 == 0 {
					render(r)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if !strings.Contains(render(r), `ds_cv{k="a"} 8000`+"\n") {
		t.Fatalf("vec child lost increments:\n%s", render(r))
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ds_one", "one").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain prefix", ct)
	}
	if !strings.Contains(rec.Body.String(), "ds_one 1\n") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}
