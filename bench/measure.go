package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// sizes scales a run: measured runs use the full corpus and op counts,
// the smoke path a tiny corpus and a handful of ops.
type sizes struct {
	scale      float64 // of the paper's corpus
	replicates int     // 0 keeps the workload's own count
	opsFactor  float64 // multiplies timed op counts
	probeOps   int     // ops per layer probe (traced runs)
}

var (
	fullSize  = sizes{scale: 1.0 / 64, opsFactor: 1, probeOps: 1500}
	smokeSize = sizes{scale: 1.0 / 1024, replicates: 1, opsFactor: 0.05, probeOps: 60}
)

// outcome is what a run reports.
type outcome struct {
	attempted, failed int
	// refused counts the failed ops the system rejected by rule (a typed
	// QueryError, an HTTP 4xx); the rest ran out of time somewhere.
	refused  int
	firstErr error
	metrics  map[string]float64
	env      map[string]any
	spans    []span
}

// runBudget bounds a whole run; the driver gives one 180 s.
const runBudget = 150 * time.Second

// measure runs workload w once: the corpus, one discarded replicate of
// the life cycle, the timed replicates, then the correctness gate on the
// last saved directory. It reports each end-to-end metric's median over
// the timed replicates, or with traced set the per-layer metrics of one
// traced replicate and of the layer probes.
func measure(w *workload, seed int64, seconds int, traced bool, sz sizes, tmpBase string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	data, err := makeDataset(sz.scale)
	if err != nil {
		return nil, err
	}
	ops := opDigest(seed, data.vocab)
	if err := checkPinned(seed, sz.scale, data.digest, ops); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpBase, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	n := w.Replicates
	if sz.replicates > 0 {
		n = sz.replicates
	}
	if traced {
		n = 2 // one untraced to compare with, one traced
	}
	r := &run{ctx: ctx, w: w, seed: seed, data: data, st: newStream(seed, data.vocab), tmp: tmp,
		clients: 1, probeOps: sz.probeOps,
		firstOp: op{Class: classAnd, Query: data.vocab[0] + " " + data.vocab[1], Limit: 10}}
	if w.http() {
		r.clients = procs
	}
	r.passOps = max(1, int(float64(w.OpsPerSecond*seconds)*sz.opsFactor)/w.Replicates)
	r.warmOps = max(1, r.passOps/4)
	r.snippetOps = w.SnippetOps
	var rec *recorder
	if traced {
		rec, r.tr = newRecorder(), &tracer{}
	}

	out := &outcome{metrics: make(map[string]float64)}
	var reps []replicate
	var walls []float64
	var gateS float64
	for i := 0; i <= n; i++ {
		if traced && i == n {
			r.rec = rec
		}
		t0 := time.Now()
		rep, err := r.replicate(i)
		r.rec = nil
		if err != nil {
			return nil, fmt.Errorf("replicate %d: %w", i, err)
		}
		for _, p := range []passResult{rep.queries, rep.snippets} {
			out.attempted += len(p.samples)
			out.failed += p.failed
			out.refused += p.refused
			if out.firstErr == nil {
				out.firstErr = p.firstErr
			}
		}
		walls = append(walls, time.Since(t0).Seconds())
		if i == n {
			// The last directory stays for the gate and the probes; it
			// goes with tmp.
			t0 := time.Now()
			if err := r.gate(rep.dir); err != nil {
				return nil, err
			}
			gateS = time.Since(t0).Seconds()
		} else if err := os.RemoveAll(rep.dir); err != nil {
			return nil, err
		}
		if i > 0 {
			reps = append(reps, rep) // replicate 0 warmed the process up
		}
	}
	if out.refused != 0 {
		// Refusals are deterministic, and the stream is built to hold no
		// op that is refused, for any seed. (A timeout on a busy machine
		// is counted in failed and reported, not held against the code.)
		return nil, fmt.Errorf("%d of %d ops were refused, the stream has none that should be; first: %w", out.refused, out.attempted, out.firstErr)
	}

	var p50s, speeds []float64
	for _, rep := range reps {
		p50s = append(p50s, ms(percentile(collect(rep.queries).all, 50)))
		speeds = append(speeds, rep.setupSpeed, rep.querySpeed)
	}
	out.env = map[string]any{
		"workload": w.Name, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(),
		"clients": r.clients, "replicates": len(reps), "ops_per_replicate": r.passOps,
		"snippet_ops_per_replicate": r.snippetOps, "stream_ops": r.st.issued,
		"corpus_digest": data.digest, "op_digest": ops,
		// Replicates that disagree point at the machine, not the code.
		"replicate_p50_ms": p50s, "replicate_wall_s": walls,
		"machine_speed_mb_per_s": speeds, "nominal_speed_mb_per_s": nominalSpeed,
		"corpus_gen_s": data.genTime.Seconds(), "gate_s": gateS,
	}
	if traced {
		if err := r.layerMetrics(out.metrics, reps[0], reps[1], rec); err != nil {
			return nil, err
		}
		out.spans = rec.closed()
		return out, nil
	}
	raw := make(map[string]float64)
	endToEndMetrics(out.metrics, raw, data, reps)
	out.env["wall_clock"] = raw
	return out, nil
}

// endToEndMetrics fills m with the 14 end-to-end numbers, each the
// median over the replicates of that replicate's own value, timings at
// the reference machine speed (refspeed.go). raw gets the same medians
// of the wall-clock values as they were measured.
func endToEndMetrics(m, raw map[string]float64, data *dataset, reps []replicate) {
	vals, rawVals := make(map[string][]float64), make(map[string][]float64)
	for _, rep := range reps {
		q, s := collect(rep.queries), collect(rep.snippets)
		fs, fq := rep.setupSpeed/nominalSpeed, rep.querySpeed/nominalSpeed
		// A time at reference speed is the measured one times f, a rate
		// the measured one divided by f; sizes are what they are.
		add := func(name string, v, scale float64) {
			rawVals[name] = append(rawVals[name], v)
			vals[name] = append(vals[name], v*scale)
		}
		add("setup_s", data.genTime.Seconds()+rep.setup.Seconds(), fs)
		add("build_mb_per_s", float64(data.bytes)/1e6/rep.build.Seconds(), 1/fs)
		add("update_files_per_s", float64(rep.changed)/rep.update.Seconds(), 1/fs)
		add("index_bytes_per_corpus_byte", float64(rep.saveBytes)/float64(data.bytes), 1)
		add("resident_mb", rep.residentMB, 1)
		add("open_ms", ms(rep.open), fs)
		add("p50_ms", ms(percentile(q.all, 50)), fq)
		add("p95_ms", ms(percentile(q.all, 95)), fq)
		add("and_p50_ms", ms(percentile(q.byClass[classAnd], 50)), fq)
		add("bm25_p50_ms", ms(percentile(q.byClass[classBM25], 50)), fq)
		add("phrase_p50_ms", ms(percentile(q.byClass[classPhrase], 50)), fq)
		add("prefix_p50_ms", ms(percentile(q.byClass[classPrefix], 50)), fq)
		add("snippet_p50_ms", ms(percentile(s.all, 50)), fq)
		add("qps", float64(len(rep.queries.samples))/rep.queries.wall.Seconds(), 1/fq)
	}
	for name := range vals {
		m[name], raw[name] = median(vals[name]), median(rawVals[name])
	}
}

// pinnedCorpus is the digest (files/bytes/hash of paths and sizes) of
// the corpus at the measured scale, and pinnedOps the op-stream digests
// of the seeds the calibration used. If generating either ever changes,
// the numbers stop being comparable with earlier ones, and the run must
// say so rather than report them.
const pinnedCorpus = "796/14237317/e9b387e3e699c434"

var pinnedOps = map[int64]string{
	1: "0dfd0fbbdc9c0978", 2: "4894e8dd74111ce1", 3: "909dc45d0ec740aa", 4: "486dfc849b3388b4", 5: "d608ba07411bf3bb",
	6: "13b7346b2f60460a", 7: "9942f2e094bf712a", 8: "a84a424f34063e72", 9: "7f366160d9ccc560", 10: "62eb524f22472f2c",
}

func checkPinned(seed int64, scale float64, corpusDigest, ops string) error {
	if scale != fullSize.scale {
		return nil
	}
	if corpusDigest != pinnedCorpus {
		return fmt.Errorf("the corpus drifted: digest %s, pinned %s", corpusDigest, pinnedCorpus)
	}
	if want, ok := pinnedOps[seed]; ok && ops != want {
		return fmt.Errorf("the op stream of seed %d drifted: digest %s, pinned %s", seed, ops, want)
	}
	return nil
}
