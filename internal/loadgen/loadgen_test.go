package loadgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"desksearch"
	"desksearch/internal/corpus"
	"desksearch/internal/search"
	"desksearch/internal/server"
	"desksearch/internal/vfs"
)

// buildCorpusCatalog generates a tiny corpusgen corpus in memory and
// indexes it positionally — the harness's in-process fixture.
func buildCorpusCatalog(t *testing.T) (*desksearch.Catalog, []string) {
	t.Helper()
	spec := corpus.PaperSpec().Scale(1.0 / 4096)
	spec.Seed = 42
	fs := vfs.NewMemFS()
	if _, err := corpus.Generate(spec, fs); err != nil {
		t.Fatal(err)
	}
	cat, err := desksearch.IndexFS(fs, ".", desksearch.Options{Positions: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cat, corpus.BuildVocabulary(spec)
}

// TestGeneratorDeterminism: one seed, one op stream — byte for byte.
func TestGeneratorDeterminism(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	g1, err := NewGenerator(7, vocab, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(7, vocab, nil)
	for i := 0; i < 500; i++ {
		a, b := g1.Next(), g2.Next()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a, b)
		}
	}
	// A different seed diverges somewhere in the stream.
	g3, _ := NewGenerator(8, vocab, nil)
	g4, _ := NewGenerator(7, vocab, nil)
	same := true
	for i := 0; i < 100; i++ {
		if !reflect.DeepEqual(g3.Next(), g4.Next()) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratorCoversEveryClass: the default mix reaches all classes and
// every op is well-formed for its class — including over a vocabulary
// holding the grammar's keywords, which must come out as terms (the
// generator once emitted "or OR ykorg", a parse error counted as a failed
// op).
func TestGeneratorCoversEveryClass(t *testing.T) {
	vocab := []string{"and", "alpha", "or", "beta", "not", "gamma", "delta"}
	g, err := NewGenerator(3, vocab, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Class]int)
	for i := 0; i < 20000; i++ {
		op := g.Next()
		seen[op.Class]++
		if op.Query == "" {
			t.Fatalf("op %d (%s): empty query", i, op.Class)
		}
		if op.Limit <= 0 {
			t.Fatalf("op %d (%s): limit %d", i, op.Class, op.Limit)
		}
		if op.Class == ClassSuggest {
			continue // a bare prefix, never parsed
		}
		if _, err := search.Parse(op.Query); err != nil {
			t.Fatalf("op %d (%s): %q does not parse: %v", i, op.Class, op.Query, err)
		}
	}
	for _, c := range Classes {
		if seen[c] == 0 {
			t.Errorf("class %s never generated in 20000 ops", c)
		}
	}
}

// TestRunInProcess drives the full harness against an in-process catalog
// over a real corpusgen corpus and checks the summary's shape: per-class
// percentile blocks, ordered percentiles, and exact query accounting.
func TestRunInProcess(t *testing.T) {
	cat, vocab := buildCorpusCatalog(t)
	gen, err := NewGenerator(1, vocab, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	sum, err := Run(context.Background(), Config{
		Target:    &CatalogTarget{Cat: cat},
		Generator: gen,
		Queries:   n,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != n {
		t.Fatalf("summary counts %d queries, want %d", sum.Queries, n)
	}
	if sum.AchievedQPS <= 0 || sum.WallMS <= 0 {
		t.Fatalf("degenerate throughput: %+v", sum)
	}
	totalByClass := 0
	for class, cs := range sum.Classes {
		totalByClass += cs.Queries
		if cs.P50MS > cs.P95MS || cs.P95MS > cs.P99MS || cs.P99MS > cs.MaxMS {
			t.Errorf("%s: percentiles out of order: %+v", class, cs)
		}
		if cs.MaxMS <= 0 {
			t.Errorf("%s: zero max latency", class)
		}
	}
	if totalByClass != n {
		t.Fatalf("per-class counts sum to %d, want %d", totalByClass, n)
	}
	// Boolean and ranked classes query a real catalog and must not error;
	// phrase/suggest may legitimately match nothing but still succeed.
	if sum.Errors != 0 {
		t.Fatalf("%d errors against a positional in-process catalog: %+v", sum.Errors, sum.Classes)
	}
}

// TestRunOverHTTP drives the harness through a dsearchd HTTP server and
// cross-checks the daemon's /metrics query counter against the summary —
// the load harness and the observability layer agreeing on how much
// traffic flowed.
func TestRunOverHTTP(t *testing.T) {
	cat, vocab := buildCorpusCatalog(t)
	srv := server.New(server.Config{Catalog: cat})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gen, err := NewGenerator(2, vocab, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	sum, err := Run(context.Background(), Config{
		Target:    &HTTPTarget{BaseURL: ts.URL},
		Generator: gen,
		Queries:   n,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != n || sum.Errors != 0 {
		t.Fatalf("queries=%d errors=%d, want %d/0 (%+v)", sum.Queries, sum.Errors, n, sum.Classes)
	}
}

// TestRunPacing: a paced run takes at least (queries-1)/QPS seconds —
// dispatch follows the absolute schedule rather than bursting.
func TestRunPacing(t *testing.T) {
	cat, vocab := buildCorpusCatalog(t)
	gen, err := NewGenerator(5, vocab, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n, qps = 40, 400.0
	start := time.Now()
	sum, err := Run(context.Background(), Config{
		Target:    &CatalogTarget{Cat: cat},
		Generator: gen,
		Queries:   n,
		QPS:       qps,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	minWall := time.Duration(float64(n-1) / qps * float64(time.Second))
	if elapsed := time.Since(start); elapsed < minWall {
		t.Fatalf("paced run finished in %s, schedule requires >= %s", elapsed, minWall)
	}
	if sum.AchievedQPS > qps*1.5 {
		t.Fatalf("achieved %0.f QPS against a %0.f target", sum.AchievedQPS, qps)
	}
	if sum.TargetQPS != qps {
		t.Fatalf("TargetQPS = %v, want %v", sum.TargetQPS, qps)
	}
}

// TestRunCancellation: a canceled context stops dispatch without
// deadlocking and the partial summary stays consistent.
func TestRunCancellation(t *testing.T) {
	cat, vocab := buildCorpusCatalog(t)
	gen, err := NewGenerator(9, vocab, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before dispatch: at most a few buffered ops run
	sum, err := Run(ctx, Config{
		Target:    &CatalogTarget{Cat: cat},
		Generator: gen,
		Queries:   10_000,
		QPS:       10, // slow pace guarantees cancellation hits mid-schedule
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries >= 10_000 {
		t.Fatalf("canceled run completed all %d queries", sum.Queries)
	}
}

// TestPercentileNearestRank pins the percentile definition.
func TestPercentileNearestRank(t *testing.T) {
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	} {
		if got := percentile(durs, tc.p); got != tc.want {
			t.Errorf("p%d = %s, want %s", tc.p, got, tc.want)
		}
	}
	if got := percentile(durs[:1], 99); got != time.Millisecond {
		t.Errorf("p99 of singleton = %s, want 1ms", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %s, want 0", got)
	}
}
