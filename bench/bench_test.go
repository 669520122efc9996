package main

import (
	"context"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
)

type countTarget struct{ n atomic.Int64 }

func (c *countTarget) do(context.Context, op, *recorder, int, int) error { c.n.Add(1); return nil }
func (c *countTarget) fetch(context.Context, op) (answer, error)         { return answer{}, nil }

// TestSmoke runs all five workloads, untraced and traced, on a tiny
// corpus: every life-cycle step, both HTTP configurations and the
// correctness gate, in a few seconds.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			out, err := measure(w, 5, runSeconds, false, smokeSize, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%d ops attempted, %d failed", out.attempted, out.failed)
			}
			if len(out.metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(out.metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := out.metrics[d.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v (reported: %v), want a positive number", d.Name, v, ok)
				}
			}
			for _, k := range []string{"nproc", "gomaxprocs", "go", "seed", "corpus_digest", "op_digest"} {
				if _, ok := out.env[k]; !ok {
					t.Errorf("env block lacks %s", k)
				}
			}

			traced, err := measure(w, 5, runSeconds, true, smokeSize, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(traced.metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := traced.metrics[d.Name]; !ok {
					t.Errorf("traced run lacks per-layer metric %s", d.Name)
				}
			}
			if len(traced.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			// Layers a workload uses must have measured something; the
			// rest report 0 (see which in README's layer table).
			always := []string{"walk.list_ms", "index.insert_ms", "delta.apply_ms", "shard.save_ms", "shard.load_ms",
				"search.parse_us", "search.engine_query_us.and", "search.snippet_us", "loadgen.client_overhead_us"}
			for _, name := range append(always, usedLayers[w.Serve]...) {
				if !(traced.metrics[name] > 0) {
					t.Errorf("%s = %v on %s, want a measurement", name, traced.metrics[name], w.Name)
				}
			}
			for _, name := range idleLayers[w.Serve] {
				if traced.metrics[name] != 0 {
					t.Errorf("%s = %v on %s, which does not use that layer", name, traced.metrics[name], w.Name)
				}
			}
		})
	}
}

var (
	usedLayers = map[string][]string{
		"built": {"index.iterator_open_ns"},
		"heap":  {"index.iterator_open_ns"},
		"lazy":  {"segment.open_ms", "segment.decode_block_us", "segment.iterator_open_ns", "segment.cache_used_bytes"},
		"node":  {"index.iterator_open_ns", "server.handler_us", "server.http_us"},
		"fleet": {"segment.open_ms", "server.worker_search_us", "broker.df_round_us", "broker.overhead_us", "server.http_us"},
	}
	idleLayers = map[string][]string{
		"built": {"segment.open_ms", "server.handler_us", "broker.overhead_us", "cache.hit_ratio"},
		"heap":  {"segment.decode_block_us", "server.http_us", "broker.df_round_us"},
		"lazy":  {"index.iterator_open_ns", "server.handler_us", "broker.overhead_us"},
		"node":  {"segment.blocks_decoded_per_op", "broker.overhead_us", "server.worker_search_us"},
		"fleet": {"index.iterator_open_ns", "cache.hit_ratio", "broker.hedges", "broker.failovers"},
	}
)

// BENCHMARK.json is what the driver reads; the registry is what the
// program prints. They must name the same things.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound in BENCHMARK.json %v, in the program %v (must be in (0, 0.25])", d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, true)
	check("per-layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("too many metrics for the contract: %d end-to-end, %d per-layer", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}
