package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"desksearch"
	"desksearch/internal/core"
	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/search"
	"desksearch/internal/segment"
	"desksearch/internal/server"
	"desksearch/internal/shard"
)

// layerMetrics fills m with every per-layer number: from the traced
// replicate's set-up and the spans of its pass, from the backend's own
// /stats, and from probes that call single layers through their public
// functions (each probe call is recorded as a span too). untraced is the
// replicate before it, the same work without the recorder.
func (r *run) layerMetrics(m map[string]float64, untraced, traced replicate, rec *recorder) error {
	dir := traced.dir // the last replicate's, which measure keeps
	for _, d := range perLayer {
		m[d.Name] = 0 // a layer this workload does not use did no work
	}

	// Build, update and save: from the traced replicate.
	m["core.extract_update_s"], m["core.shard_s"] = traced.extractUpdateS, traced.shardS
	m["delta.diff_ms"], m["delta.apply_ms"] = ms(traced.diff), ms(traced.apply)
	m["shard.save_ms"], m["shard.save_bytes"] = ms(traced.save), float64(traced.saveBytes)
	m["index.terms"], m["index.postings"] = float64(traced.stats.Terms), float64(traced.stats.Postings)
	m["delta.postings_removed"], m["delta.postings_added"] = float64(traced.upd.PostingsRemoved), float64(traced.upd.PostingsAdded)
	m["shard.dirty_segments"] = float64(traced.dirty)
	m["machine.ref_mb_per_s"] = (traced.setupSpeed + traced.querySpeed) / 2

	// The traced pass: self times along the serving path.
	lt := groupSpans(rec.closed())
	if p := percentile(collect(untraced.queries).all, 50); p > 0 {
		m["trace.overhead_pct"] = (float64(percentile(collect(traced.queries).all, 50))/float64(p) - 1) * 100
	}
	switch r.w.Serve {
	case "node":
		m["server.handler_us"] = medianUS(lt.total["server.handler"])
		m["server.http_us"] = medianUS(lt.self["client.roundtrip"])
	case "fleet":
		var worker []time.Duration
		for _, n := range []string{"worker.df", "worker.search", "worker.suggest"} {
			worker = append(worker, lt.total[n]...)
		}
		m["server.handler_us"] = medianUS(worker)
		m["server.http_us"] = medianUS(lt.self["client.roundtrip"])
		m["server.worker_search_us"] = medianUS(lt.total["worker.search"])
		m["broker.overhead_us"] = medianUS(lt.self["broker.handler"])
		m["broker.df_round_us"] = medianUS(dfRounds(rec.closed()))
	}
	for name, v := range traced.counters {
		m[name] = v
	}

	// Probes. They take the stream's next ops and record spans as well.
	r.rec = rec
	defer func() { r.rec = nil }()
	warm, sample := r.st.take(r.probeOps), r.st.take(r.probeOps)
	snip := r.st.takeClass(classBM25, max(2, r.probeOps/100))
	if err := r.buildProbes(m); err != nil {
		return err
	}
	if err := r.searchProbes(m, dir, warm, sample, snip); err != nil {
		return err
	}
	noop := runPass(r.ctx, noopTarget{}, sample, 1, nil, 0)
	m["loadgen.client_overhead_us"] = us(percentile(collect(noop).all, 50))
	return nil
}

// dfRounds returns, per broker request that made one, the time from the
// first worker.df call's start to the last one's end.
func dfRounds(spans []span) []time.Duration {
	type window struct{ lo, hi time.Duration }
	rounds := make(map[int]window)
	for _, s := range spans {
		if s.Name != "worker.df" || s.Parent < 0 {
			continue
		}
		w, ok := rounds[s.Parent]
		if !ok {
			w = window{s.Start, s.End}
		}
		rounds[s.Parent] = window{min(w.lo, s.Start), max(w.hi, s.End)}
	}
	out := make([]time.Duration, 0, len(rounds))
	for _, w := range rounds {
		out = append(out, w.hi-w.lo)
	}
	return out
}

// counters reads the numbers the serving backend keeps itself.
func (r *run) counters(b *backend) (map[string]float64, error) {
	m := make(map[string]float64)
	switch r.w.Serve {
	case "lazy":
		_, used, _ := b.cat.BlockCache()
		m["segment.cache_used_bytes"] = float64(used)
	case "node":
		var st server.StatsResponse
		if err := getJSON(r.ctx, b.url, "/stats", &st); err != nil {
			return nil, err
		}
		if c := st.Cache; c != nil {
			if c.Hits+c.Misses > 0 {
				m["cache.hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
			}
			m["cache.coalesced"], m["cache.evictions"] = float64(c.Coalesced), float64(c.Evictions)
		}
	case "fleet":
		var st struct {
			Hedges    uint64 `json:"hedges"`
			Failovers uint64 `json:"failovers"`
		}
		if err := getJSON(r.ctx, b.url, "/stats", &st); err != nil {
			return nil, err
		}
		m["broker.hedges"], m["broker.failovers"] = float64(st.Hedges), float64(st.Failovers)
		for _, u := range b.workers {
			var ws server.StatsResponse
			if err := getJSON(r.ctx, u, "/stats", &ws); err != nil {
				return nil, err
			}
			if ws.BlockCache != nil {
				m["segment.cache_used_bytes"] += float64(ws.BlockCache.UsedBytes)
			}
		}
	}
	return m, nil
}

// buildProbes times the build's stages in isolation (the paper's Table
// 1) and the shard distribution of an unsharded build.
func (r *run) buildProbes(m map[string]float64) error {
	var stages core.StageTimes
	var err error
	r.rec.timed("core.measure_stages", -1, func() {
		stages, err = core.MeasureStages(r.data.fs, corpusRoot, extract.Options{Positions: true})
	})
	if err != nil {
		return err
	}
	m["walk.list_ms"], m["extract.read_ms"] = ms(stages.FilenameGen), ms(stages.ReadFiles)
	m["extract.scan_ms"], m["index.insert_ms"] = ms(stages.ReadExtract), ms(stages.IndexUpdate)

	cfg := core.Default(core.ReplicatedSearch, runtime.GOMAXPROCS(0))
	cfg.Extract.Positions = true
	res, err := core.Run(r.data.fs, corpusRoot, cfg)
	if err != nil {
		return err
	}
	var set *shard.Set
	m["shard.distribute_ms"] = ms(r.rec.timed("shard.distribute", -1, func() {
		set = shard.Distribute(res.Files, res.Indexes(), catalogOptions.Shards)
	}))
	if set.Len() != catalogOptions.Shards {
		return fmt.Errorf("Distribute built %d shards", set.Len())
	}
	return nil
}

// lazyServe reports whether the workload's queries run on lazy segments.
func (r *run) lazyServe() bool { return r.w.Serve == "lazy" || r.w.Serve == "fleet" }

// searchProbes calls the query-side layers directly on the saved
// directory: the engine under the facade, per class, over the heap or
// the segment partitions, whichever the workload serves from; then the
// facade and the server shell (facadeProbes).
func (r *run) searchProbes(m map[string]float64, dir string, warm, sample, snip []op) error {
	var set *shard.Set
	var err error
	m["shard.load_ms"] = ms(r.rec.timed("shard.load", -1, func() { set, err = shard.LoadDir(dir) }))
	if err != nil {
		return err
	}

	// The engine the workload's backend wraps, rebuilt from the layers.
	var eng *search.Engine
	var readers []*segment.Reader
	terms := queryTerms(sample)
	if r.lazyServe() {
		budget := int64(lazyCacheBytes)
		if r.w.Serve == "fleet" {
			budget = segment.DefaultCacheBytes
		}
		lset, err := shard.OpenDir(dir, budget)
		if err != nil {
			return err
		}
		defer lset.Close()
		eng, readers = search.NewEngine(lset.Files(), lset.Partitions()...), lset.Readers()
	} else {
		eng = search.NewEngine(set.Files(), index.Partitions(set.Shards())...)
		var opens []float64
		for _, ix := range set.Shards() {
			opens = append(opens, timeIteratorOpens(ix, terms))
		}
		m["index.iterator_open_ns"] = median(opens)
	}
	if err := r.engineProbe(eng, warm, nil); err != nil {
		return err
	}
	before := blockDecodes(readers)
	if err := r.engineProbe(eng, sample, m); err != nil {
		return err
	}
	decoded := blockDecodes(readers) - before
	var snips []time.Duration
	for _, o := range snip {
		o.Snippets, o.Limit = true, snippetLimit
		d, _, err := r.engineQuery(eng, o)
		if err != nil {
			return err
		}
		snips = append(snips, d)
	}
	m["search.snippet_us"] = medianUS(snips)

	if r.lazyServe() {
		m["segment.blocks_decoded_per_op"] = float64(decoded) / float64(len(sample))
		var opens []float64
		for _, rd := range readers {
			opens = append(opens, timeIteratorOpens(rd, terms))
		}
		m["segment.iterator_open_ns"] = median(opens) // under the workload's cache, as it stands after the ops
		if err := r.segmentProbes(m, dir, set.Files(), warm, sample, terms, decoded); err != nil {
			return err
		}
	}
	return r.facadeProbes(m, dir, sample)
}

// facadeProbes times what sits above the engine, on a catalog opened for
// the probe: parsing, the df vector of BM25 ops, and — when the workload
// has a server — the handler's shell around Catalog.Query, as the
// difference between an uncached handler answering into a recorder and
// the direct call for the same op.
func (r *run) facadeProbes(m map[string]float64, dir string, sample []op) error {
	open := desksearch.LoadDir
	if r.lazyServe() {
		open = desksearch.OpenDir
	}
	cat, err := open(dir)
	if err != nil {
		return err
	}
	defer cat.Close()
	var h http.Handler
	if r.w.http() {
		// Cache off: the shell's cost per evaluated request, not a hit's.
		h = server.New(server.Config{Catalog: cat, CacheEntries: -1, Worker: r.w.Serve == "fleet"}).Handler()
	}
	var parse, df, direct, handled []time.Duration
	for i, o := range sample {
		if o.Class == classSuggest {
			continue
		}
		q, err := o.query()
		if err != nil {
			return err
		}
		parse = append(parse, r.rec.timed("search.parse", i, func() { q.Expr, err = desksearch.ParseQuery(o.Query) }))
		if err != nil {
			return err
		}
		if o.Class == classBM25 {
			df = append(df, r.rec.timed("search.df", i, func() { _, err = cat.DocFreqs(r.ctx, q) }))
			if err != nil {
				return err
			}
		}
		if h == nil {
			continue
		}
		t0 := time.Now()
		if _, err := cat.Query(r.ctx, desksearch.Query{Text: o.Query, Limit: o.Limit, Ranking: q.Ranking}); err != nil {
			return err
		}
		direct = append(direct, time.Since(t0))
		req := httptest.NewRequest(http.MethodGet, (&httpTarget{}).url(o), nil)
		rw := httptest.NewRecorder()
		handled = append(handled, r.rec.timed("server.handler_uncached", i, func() { h.ServeHTTP(rw, req) }))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("handler probe: %s %q: status %d", o.Class, o.Query, rw.Code)
		}
	}
	m["search.parse_us"], m["search.df_us"] = medianUS(parse), medianUS(df)
	if h != nil {
		m["server.overhead_us"] = medianUS(handled) - medianUS(direct)
	}
	return nil
}

// engineQuery issues one op to eng and returns its wall time and the
// response's per-partition timings.
func (r *run) engineQuery(eng *search.Engine, o op) (time.Duration, []search.PartitionStat, error) {
	q, err := search.Parse(o.Query)
	if err != nil {
		return 0, nil, err
	}
	req := search.Request{Query: q, Limit: o.Limit, Snippets: o.Snippets}
	if o.Rank == "bm25" {
		req.Ranking = search.RankBM25
	}
	name := "search.engine_query"
	if o.Snippets {
		name = "search.snippet"
	}
	var resp *search.Response
	d := r.rec.timed(name, -1, func() { resp, err = eng.Query(r.ctx, req) })
	if err != nil {
		return 0, nil, err
	}
	return d, resp.Partitions, nil
}

// engineProbe issues ops to eng and, when m is set, records the
// per-class medians, the slowest-partition time and the fan-out skew.
func (r *run) engineProbe(eng *search.Engine, ops []op, m map[string]float64) error {
	byClass := make(map[class][]time.Duration)
	var suggest, slowest []time.Duration
	var skew []float64
	for _, o := range ops {
		if o.Class == classSuggest {
			var err error
			suggest = append(suggest, r.rec.timed("search.suggest", -1, func() { _, err = eng.Suggest(r.ctx, o.Query, o.Limit) }))
			if err != nil {
				return err
			}
			continue
		}
		d, parts, err := r.engineQuery(eng, o)
		if err != nil {
			return err
		}
		byClass[o.Class] = append(byClass[o.Class], d)
		var top, sum time.Duration
		for _, p := range parts {
			top, sum = max(top, p.Duration), sum+p.Duration
		}
		if sum > 0 {
			slowest = append(slowest, top)
			skew = append(skew, float64(top)*float64(len(parts))/float64(sum))
		}
	}
	if m == nil {
		return nil
	}
	for _, c := range engineClasses {
		m["search.engine_query_us."+string(c)] = medianUS(byClass[c])
	}
	m["search.suggest_us"] = medianUS(suggest)
	m["search.partition_max_us"], m["search.fanout_skew"] = medianUS(slowest), median(skew)
	return nil
}

// segmentProbes opens the segment files without a cache: every lookup
// decodes, which prices a cold block and, against the decodes the
// workload's cache budget left (cached), gives the cache's hit ratio.
func (r *run) segmentProbes(m map[string]float64, dir string, files *index.FileTable, warm, sample []op, terms []string, cached uint64) error {
	var readers []*segment.Reader
	var parts []index.Partition
	var opens []float64
	defer func() {
		for _, rd := range readers {
			rd.Close()
		}
	}()
	for i := 0; i < catalogOptions.Shards; i++ {
		var rd *segment.Reader
		var err error
		opens = append(opens, ms(r.rec.timed("segment.open", i, func() {
			rd, err = segment.Open(filepath.Join(dir, shard.SegmentName(i)), nil)
		})))
		if err != nil {
			return err
		}
		readers, parts = append(readers, rd), append(parts, rd)
	}
	m["segment.open_ms"] = median(opens)

	eng := search.NewEngine(files, parts...)
	if err := r.engineProbe(eng, warm, nil); err != nil {
		return err
	}
	before := blockDecodes(readers)
	if err := r.engineProbe(eng, sample, nil); err != nil {
		return err
	}
	if uncached := blockDecodes(readers) - before; uncached > 0 {
		m["segment.cache_hit_ratio"] = 1 - float64(cached)/float64(uncached)
	}

	var decodes []time.Duration
	for _, rd := range readers {
		for _, t := range terms {
			t0 := time.Now()
			l := rd.Lookup(t)
			d := time.Since(t0)
			if l != nil {
				decodes = append(decodes, d)
			}
		}
	}
	m["segment.decode_block_us"] = medianUS(decodes)
	return nil
}

func blockDecodes(readers []*segment.Reader) uint64 {
	var n uint64
	for _, rd := range readers {
		n += rd.BlockDecodes()
	}
	return n
}

// timeIteratorOpens returns the mean nanoseconds of p.Iterator(term)
// over terms. One open is too short to time alone; the loop is timed.
func timeIteratorOpens(p index.Partition, terms []string) float64 {
	if len(terms) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, t := range terms {
		iteratorSink = p.Iterator(t)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(terms))
}

// iteratorSink keeps the compiler from discarding the timed call.
var iteratorSink index.PostingIterator

// queryTerms returns the words of the ops' queries, in order.
func queryTerms(ops []op) []string {
	var out []string
	for _, o := range ops {
		if o.Class == classSuggest || o.Class == classPrefix {
			continue
		}
		for _, w := range strings.FieldsFunc(o.Query, func(c rune) bool { return c < 'a' || c > 'z' }) {
			out = append(out, w)
		}
	}
	return out
}
