// Package loadgen replays a mixed query workload against a search
// target — a dsearchd URL or an in-process catalog — at controlled QPS
// and summarizes per-class latency. It is the measurement half of the
// repo's load-test harness (cmd/loadgen is the CLI): the related work's
// throughput/latency evaluations (Orlando et al.'s parallel web-search
// engine, ParIS+'s query-workload benchmarks) are driven by exactly
// this shape of experiment, and microbenchmarks alone miss the
// contention they expose.
//
// The workload generator is deterministic: one seed and one vocabulary
// produce one op stream, so runs are comparable across machines and
// commits. Query terms are drawn Zipf-skewed from the same vocabulary
// the corpus generator writes content with (internal/corpus), so hot
// query terms hit hot posting lists — the realistic case — rather than
// uniformly cold ones.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Class labels one query shape of the mixed workload.
type Class string

// The workload's query classes. Each exercises a different evaluation
// path: galloping AND intersection, OR union, NOT subtraction,
// positional phrase verification, dictionary-range prefix expansion,
// WAND top-k BM25, and the suggest endpoint's frequency-ranked scan.
const (
	ClassAnd     Class = "and"
	ClassOr      Class = "or"
	ClassNot     Class = "not"
	ClassPhrase  Class = "phrase"
	ClassPrefix  Class = "prefix"
	ClassBM25    Class = "bm25"
	ClassSuggest Class = "suggest"
)

// Classes lists every workload class in a fixed order.
var Classes = []Class{ClassAnd, ClassOr, ClassNot, ClassPhrase, ClassPrefix, ClassBM25, ClassSuggest}

// DefaultMix weights the classes roughly like an interactive search
// box: conjunctions and ranked queries dominate, negations and phrases
// are the tail.
var DefaultMix = map[Class]int{
	ClassAnd:     25,
	ClassOr:      15,
	ClassNot:     10,
	ClassPhrase:  10,
	ClassPrefix:  10,
	ClassBM25:    20,
	ClassSuggest: 10,
}

// Op is one generated operation.
type Op struct {
	// Class labels which latency histogram the op lands in.
	Class Class
	// Query is the q parameter: a boolean expression, or the bare prefix
	// for ClassSuggest.
	Query string
	// Rank is the rank parameter ("" for the default count ranking).
	Rank string
	// Limit is the page size requested.
	Limit int
}

// Generator produces a deterministic op stream. Not safe for concurrent
// use; the runner drains it single-threaded before dispatching.
type Generator struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	vocab []string
	mix   []Class // one entry per weight unit; Next indexes it uniformly
}

// NewGenerator returns a generator over the vocabulary. A nil or empty
// mix falls back to DefaultMix. The vocabulary must be the one the
// corpus was generated from for term frequencies to be realistic, but
// any non-empty word list produces a valid workload.
func NewGenerator(seed int64, vocab []string, mix map[Class]int) (*Generator, error) {
	if len(vocab) == 0 {
		return nil, fmt.Errorf("loadgen: empty vocabulary")
	}
	if len(mix) == 0 {
		mix = DefaultMix
	}
	var expanded []Class
	for _, c := range Classes { // fixed order keeps the stream deterministic
		for i := 0; i < mix[c]; i++ {
			expanded = append(expanded, c)
		}
	}
	if len(expanded) == 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if len(vocab) > 1 {
		// The same skew internal/corpus writes content with, so the query
		// term distribution matches the posting-list size distribution.
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	}
	return &Generator{rng: rng, zipf: zipf, vocab: vocab, mix: expanded}, nil
}

// term draws one Zipf-skewed vocabulary word.
func (g *Generator) term() string {
	if g.zipf == nil {
		return g.vocab[0]
	}
	return g.vocab[g.zipf.Uint64()]
}

// terms draws n distinct-ish words (repeats possible on tiny vocabularies).
func (g *Generator) terms(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.term()
	}
	return out
}

// boolTerms draws n words for a boolean expression. The vocabulary may
// hold the grammar's own keywords; those go out quoted — the parser's
// canonical form for a keyword used as a term — so they parse as terms
// instead of operators. (Inside a phrase, before a '*' and in a suggest
// prefix they need no quoting.)
func (g *Generator) boolTerms(n int) []string {
	out := g.terms(n)
	for i, t := range out {
		switch strings.ToLower(t) {
		case "and", "or", "not":
			out[i] = `"` + t + `"`
		}
	}
	return out
}

// Next returns the stream's next operation.
func (g *Generator) Next() Op {
	class := g.mix[g.rng.Intn(len(g.mix))]
	limit := 10 + g.rng.Intn(40)
	switch class {
	case ClassAnd:
		return Op{Class: class, Query: strings.Join(g.boolTerms(2+g.rng.Intn(2)), " "), Limit: limit}
	case ClassOr:
		return Op{Class: class, Query: strings.Join(g.boolTerms(2+g.rng.Intn(2)), " OR "), Limit: limit}
	case ClassNot:
		ts := g.boolTerms(2)
		return Op{Class: class, Query: ts[0] + " -" + ts[1], Limit: limit}
	case ClassPhrase:
		return Op{Class: class, Query: `"` + strings.Join(g.terms(2), " ") + `"`, Limit: limit}
	case ClassPrefix:
		t := g.term()
		cut := 3
		if len(t) < cut {
			cut = len(t)
		}
		return Op{Class: class, Query: t[:cut] + "*", Rank: "bm25", Limit: limit}
	case ClassBM25:
		return Op{Class: class, Query: strings.Join(g.boolTerms(1+g.rng.Intn(3)), " "), Rank: "bm25", Limit: limit}
	default: // ClassSuggest
		t := g.term()
		cut := 2
		if len(t) < cut {
			cut = len(t)
		}
		return Op{Class: ClassSuggest, Query: t[:cut], Limit: 10}
	}
}

// Target executes one operation; implementations are in target.go.
// Deterministic rejections (a phrase query against a positionless
// catalog) and transport failures alike count as errors in the summary.
type Target interface {
	Do(ctx context.Context, op Op) error
}

// Config parameterizes one load run.
type Config struct {
	// Target executes the ops. Required.
	Target Target
	// Generator produces the workload. Required.
	Generator *Generator
	// Queries is the total number of operations to issue. Required.
	Queries int
	// QPS paces dispatch (aggregate across workers); 0 issues ops as
	// fast as the workers complete them — the throughput-probe mode.
	QPS float64
	// Workers is the concurrency; 0 falls back to 8.
	Workers int
	// Timeout bounds each operation; 0 falls back to 10 s.
	Timeout time.Duration
}

// result is one completed op's measurement.
type result struct {
	class Class
	dur   time.Duration
	err   bool
}

// Run replays the workload and returns its summary. The op stream is
// generated up front (single-threaded, deterministic) and dispatched to
// the worker pool through a channel the pacer feeds at the target rate.
// A canceled ctx stops dispatch early; completed ops still summarize.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.Target == nil || cfg.Generator == nil {
		return nil, fmt.Errorf("loadgen: Target and Generator are required")
	}
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("loadgen: Queries must be positive")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}

	ops := make([]Op, cfg.Queries)
	for i := range ops {
		ops[i] = cfg.Generator.Next()
	}

	feed := make(chan Op, workers)
	results := make([]result, 0, cfg.Queries)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]result, 0, cfg.Queries/workers+1)
			for op := range feed {
				opCtx, cancel := context.WithTimeout(ctx, timeout)
				t0 := time.Now()
				err := cfg.Target.Do(opCtx, op)
				local = append(local, result{class: op.Class, dur: time.Since(t0), err: err != nil})
				cancel()
			}
			mu.Lock()
			results = append(results, local...)
			mu.Unlock()
		}()
	}

	start := time.Now()
	var interval time.Duration
	if cfg.QPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.QPS)
	}
dispatch:
	for i, op := range ops {
		if interval > 0 {
			// Absolute schedule, not sleep-per-op: send op i at start +
			// i*interval, so pacing error does not accumulate.
			if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break dispatch
				}
			}
		}
		select {
		case feed <- op:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	wall := time.Since(start)

	return summarize(results, wall, cfg.QPS), nil
}

// Summary is the run's structured result — the JSON artifact
// cmd/benchcheck gates against a baseline.
type Summary struct {
	// Queries and Errors count completed operations across all classes.
	Queries int `json:"queries"`
	Errors  int `json:"errors"`
	// WallMS is the run's wall-clock duration.
	WallMS float64 `json:"wall_ms"`
	// TargetQPS is the configured pace (0 for unpaced), AchievedQPS the
	// measured one.
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	// Classes holds per-class latency summaries, keyed by class name.
	Classes map[string]ClassSummary `json:"classes"`
}

// ClassSummary is one query class's latency block.
type ClassSummary struct {
	Queries int     `json:"queries"`
	Errors  int     `json:"errors"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// summarize folds raw measurements into the JSON shape.
func summarize(results []result, wall time.Duration, targetQPS float64) *Summary {
	s := &Summary{
		WallMS:    float64(wall.Microseconds()) / 1e3,
		TargetQPS: targetQPS,
		Classes:   make(map[string]ClassSummary),
	}
	byClass := make(map[Class][]time.Duration)
	errs := make(map[Class]int)
	for _, r := range results {
		s.Queries++
		if r.err {
			s.Errors++
			errs[r.class]++
		}
		byClass[r.class] = append(byClass[r.class], r.dur)
	}
	if wall > 0 {
		s.AchievedQPS = float64(s.Queries) / wall.Seconds()
	}
	for class, durs := range byClass {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		s.Classes[string(class)] = ClassSummary{
			Queries: len(durs),
			Errors:  errs[class],
			P50MS:   ms(percentile(durs, 50)),
			P95MS:   ms(percentile(durs, 95)),
			P99MS:   ms(percentile(durs, 99)),
			MaxMS:   ms(durs[len(durs)-1]),
		}
	}
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
