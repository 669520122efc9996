package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one reported number. BENCHMARK.json repeats the names,
// units and directions (TestBenchmarkJSONMatchesRegistry keeps the two in
// step); Bound is the share of the parent's median an end-to-end metric
// may worsen by, set from CALIBRATION.md: every timing needs the 25% the
// driver's contract stops at.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Help   string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, measured in that workload's own configuration: the
// median over the replicates of each replicate's value, timings at the
// reference machine speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "corpus generation plus a replicate's build → save → update → open, through the first answered query"},
	{"build_mb_per_s", "MB/s", "higher", 0.25, "corpus bytes / IndexFS wall time"},
	{"update_files_per_s", "files/s", "higher", 0.25, "changed files / Catalog.Update wall time (a round rewrites 10% of the files)"},
	{"index_bytes_per_corpus_byte", "ratio", "lower", 0.01, "bytes SaveDir writes for a freshly built catalog / corpus bytes"},
	{"resident_mb", "MB", "lower", 0.03, "Go heap in use (after GC) with the serving catalog live and warmed, minus before it existed"},
	{"open_ms", "ms", "lower", 0.25, "opening the saved directory the workload's way, through the first answered query"},
	{"p50_ms", "ms", "lower", 0.25, "median latency of all non-snippet ops, closed loop"},
	{"p95_ms", "ms", "lower", 0.25, "nearest-rank 95th percentile of the same samples"},
	{"and_p50_ms", "ms", "lower", 0.25, "median latency of AND ops"},
	{"bm25_p50_ms", "ms", "lower", 0.25, "median latency of BM25 top-k ops"},
	{"phrase_p50_ms", "ms", "lower", 0.25, "median latency of phrase ops"},
	{"prefix_p50_ms", "ms", "lower", 0.25, "median latency of prefix* ops"},
	{"snippet_p50_ms", "ms", "lower", 0.25, "median latency of BM25 ops that ask for snippets"},
	{"qps", "ops/s", "higher", 0.25, "completed ops of the timed pass / its wall time"},
}

// engineClasses are the query classes search.engine_query_us is split by
// (suggest does not go through Engine.Query).
var engineClasses = []class{classAnd, classOr, classNot, classPhrase, classPrefix, classBM25}

// perLayer lists the traced run's numbers. A layer a workload does not
// use reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "walk.list_ms", Unit: "ms", Better: "lower", Help: "core.MeasureStages: directory traversal alone"},
		{Name: "extract.read_ms", Unit: "ms", Better: "lower", Help: "core.MeasureStages: reading every file, no extraction"},
		{Name: "extract.scan_ms", Unit: "ms", Better: "lower", Help: "core.MeasureStages: reading plus term extraction"},
		{Name: "index.insert_ms", Unit: "ms", Better: "lower", Help: "core.MeasureStages: inserting pre-extracted blocks"},
		{Name: "core.extract_update_s", Unit: "s", Better: "lower", Help: "Catalog.Timings: overlapped stages 2+3 of the build"},
		{Name: "core.shard_s", Unit: "s", Better: "lower", Help: "Catalog.Timings: shard-set construction inside the build"},
		{Name: "shard.distribute_ms", Unit: "ms", Better: "lower", Help: "shard.Distribute of an unsharded build into 4 shards"},
		{Name: "index.terms", Unit: "count", Better: "lower", Help: "distinct terms of the built catalog"},
		{Name: "index.postings", Unit: "count", Better: "lower", Help: "(term, file) pairs of the built catalog"},
		{Name: "delta.diff_ms", Unit: "ms", Better: "lower", Help: "Catalog.Diff of one update round"},
		{Name: "delta.apply_ms", Unit: "ms", Better: "lower", Help: "Catalog.Apply of one update round"},
		{Name: "delta.postings_removed", Unit: "count", Better: "lower", Help: "postings one update round drops"},
		{Name: "delta.postings_added", Unit: "count", Better: "lower", Help: "postings one update round inserts"},
		{Name: "shard.dirty_segments", Unit: "count", Better: "lower", Help: "segments the next SaveDir rewrites after one update round"},
		{Name: "shard.save_ms", Unit: "ms", Better: "lower", Help: "Catalog.SaveDir of a freshly built catalog"},
		{Name: "shard.save_bytes", Unit: "bytes", Better: "lower", Help: "bytes that SaveDir wrote"},
		{Name: "shard.load_ms", Unit: "ms", Better: "lower", Help: "shard.LoadDir (eager) of the saved directory"},
		{Name: "search.parse_us", Unit: "us", Better: "lower", Help: "desksearch.ParseQuery per op"},
		{Name: "search.df_us", Unit: "us", Better: "lower", Help: "Catalog.DocFreqs per BM25 op"},
	}
	for _, c := range engineClasses {
		defs = append(defs, metricDef{Name: "search.engine_query_us." + string(c), Unit: "us", Better: "lower",
			Help: "search.Engine.Query under the facade, " + string(c) + " ops"})
	}
	return append(defs, []metricDef{
		{Name: "search.partition_max_us", Unit: "us", Better: "lower", Help: "slowest partition of an op (Response.Partitions), median"},
		{Name: "search.fanout_skew", Unit: "ratio", Better: "lower", Help: "slowest partition / mean partition, median"},
		{Name: "search.suggest_us", Unit: "us", Better: "lower", Help: "Engine.Suggest per op"},
		{Name: "search.snippet_us", Unit: "us", Better: "lower", Help: "Engine.Query with Snippets per op"},
		{Name: "index.iterator_open_ns", Unit: "ns", Better: "lower", Help: "heap Partition.Iterator(term)"},
		{Name: "segment.open_ms", Unit: "ms", Better: "lower", Help: "segment.Open of one segment file"},
		{Name: "segment.iterator_open_ns", Unit: "ns", Better: "lower", Help: "lazy Reader.Iterator(term)"},
		{Name: "segment.decode_block_us", Unit: "us", Better: "lower", Help: "cold Reader.Lookup (no cache): verify + decode one block"},
		{Name: "segment.blocks_decoded_per_op", Unit: "count", Better: "lower", Help: "Reader.BlockDecodes per op under the workload's cache budget"},
		{Name: "segment.cache_hit_ratio", Unit: "ratio", Better: "higher", Help: "1 - decodes with the cache / decodes without one, same ops"},
		{Name: "segment.cache_used_bytes", Unit: "bytes", Better: "lower", Help: "Catalog.BlockCache usage after the timed passes"},
		{Name: "server.handler_us", Unit: "us", Better: "lower", Help: "server Handler().ServeHTTP per request, as served"},
		{Name: "server.overhead_us", Unit: "us", Better: "lower", Help: "uncached handler into a recorder minus Catalog.Query, same ops"},
		{Name: "server.http_us", Unit: "us", Better: "lower", Help: "client round trip minus the handler it contains"},
		{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Help: "result-cache hits / (hits + misses) from /stats"},
		{Name: "cache.coalesced", Unit: "count", Better: "higher", Help: "requests answered by another's in-flight evaluation"},
		{Name: "cache.evictions", Unit: "count", Better: "lower", Help: "result-cache evictions"},
		{Name: "server.worker_search_us", Unit: "us", Better: "lower", Help: "worker POST /internal/search handler"},
		{Name: "broker.df_round_us", Unit: "us", Better: "lower", Help: "the broker's GET /internal/df round over all workers"},
		{Name: "broker.overhead_us", Unit: "us", Better: "lower", Help: "broker handler minus the time its worker calls cover"},
		{Name: "broker.hedges", Unit: "count", Better: "lower", Help: "hedged requests (/stats; one replica per group, so 0)"},
		{Name: "broker.failovers", Unit: "count", Better: "lower", Help: "failovers (/stats; expected 0)"},
		{Name: "loadgen.client_overhead_us", Unit: "us", Better: "lower", Help: "the harness's per-op cost against a no-op target"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Help: "p50 of the traced pass over the untraced pass, minus one"},
		{Name: "machine.ref_mb_per_s", Unit: "MB/s", Better: "higher", Help: "the reference kernel's speed during the traced replicate (per-layer times are wall-clock, not scaled)"},
	}...)
}()

// printMetricList is the -list command: every metric by name with its unit.
func printMetricList(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (every workload, -trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-30s %-8s %-6s bound %4.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Help)
	}
	fmt.Fprintln(w, "per-layer (-trace 1, not gated):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-8s %-6s %s\n", m.Name, m.Unit, m.Better, m.Help)
	}
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the driver
// passes, which sizes the timed query passes.
const runSeconds = 10

// printSpec writes BENCHMARK.json from the registries above, so the file
// the driver reads is never edited by hand.
func printSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, x := range workloads {
		spec.Workloads = append(spec.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
