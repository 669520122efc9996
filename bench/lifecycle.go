package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"desksearch"
	"desksearch/internal/shard"
)

// snippetLimit is the page size of every snippet op.
const snippetLimit = 10

// catalogOptions is the catalog every workload builds.
var catalogOptions = desksearch.Options{Positions: true, Shards: 4}

// run is the state of one benchmark run.
type run struct {
	ctx     context.Context
	w       *workload
	seed    int64
	data    *dataset
	st      *stream
	tmp     string // saved index directories are made under it
	clients int    // closed-loop clients of an HTTP workload
	// passOps, warmOps and snippetOps size one replicate's query phases.
	passOps, warmOps, snippetOps int
	// probeOps is how many ops each layer probe of a traced run issues.
	probeOps int
	// tr is nil on a -trace 0 run. rec is set only while the traced
	// replicate runs.
	tr  *tracer
	rec *recorder
	// firstOp is the query whose answer ends every open.
	firstOp op
}

// replicate is one pass through the whole life cycle — build, save,
// update, open, query, snippet — and what it measured. A run makes
// several and reports each metric's median over them.
type replicate struct {
	build, save, update, open, setup time.Duration
	diff, apply                      time.Duration // traced replicates split update
	saveBytes                        int64
	changed                          int
	stats                            desksearch.Stats
	extractUpdateS, shardS           float64
	upd                              desksearch.UpdateStats
	dirty                            int
	residentMB                       float64
	// setupSpeed and querySpeed are the reference kernel's speed (MB/s)
	// around the set-up and around the query phases.
	setupSpeed, querySpeed float64
	queries, snippets      passResult
	// counters holds what the backend's own /stats said after the timed
	// pass (traced replicates only).
	counters map[string]float64
	dir      string
}

func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// replicate builds the catalog, saves it to a fresh directory, applies
// update round n to it, opens the saved directory the workload's way
// and issues the next slices of the op stream to it. The corpus content
// is the same again when it returns; the saved directory is left behind.
func (r *run) replicate(n int) (rep replicate, err error) {
	speed0 := machineSpeed()
	heap := heapInUse() // also the GC that precedes the timed calls
	start := time.Now()

	var cat *desksearch.Catalog
	rep.build = r.rec.timed("core.index_fs", n, func() {
		cat, err = desksearch.IndexFS(r.data.fs, corpusRoot, catalogOptions)
	})
	if err != nil {
		return rep, fmt.Errorf("IndexFS: %w", err)
	}
	rep.stats = cat.Stats()
	_, rep.extractUpdateS, _, rep.shardS, _ = cat.Timings()
	if rep.stats.Files != len(r.data.files) || rep.stats.Skipped != 0 {
		return rep, fmt.Errorf("IndexFS indexed %d files (%d skipped), corpus has %d", rep.stats.Files, rep.stats.Skipped, len(r.data.files))
	}

	// A catalog that was already saved rewrites only its dirty segments,
	// even into a new directory, so every save here is of a catalog that
	// IndexFS just returned, and the segment files are checked for.
	if rep.dir, err = os.MkdirTemp(r.tmp, "index-"); err != nil {
		return rep, err
	}
	runtime.GC()
	rep.save = r.rec.timed("shard.save", n, func() { err = cat.SaveDir(rep.dir) })
	if err != nil {
		return rep, fmt.Errorf("SaveDir: %w", err)
	}
	if rep.saveBytes, err = savedBytes(rep.dir, catalogOptions.Shards); err != nil {
		return rep, err
	}

	rd, err := r.data.applyRound(n)
	if err != nil {
		return rep, fmt.Errorf("update round %d: %w", n, err)
	}
	rep.changed = rd.changed()
	// Whether a collection happens to start inside an 80 ms Update moves
	// it by a third; start every timed call from a collected heap.
	runtime.GC()
	if r.rec != nil {
		// Update is Diff followed by Apply; a traced replicate calls the
		// two itself so that each gets a span.
		var cs *desksearch.Changeset
		rep.diff = r.rec.timed("delta.diff", n, func() { cs, err = cat.Diff(r.data.fs, corpusRoot) })
		if err != nil {
			return rep, fmt.Errorf("Diff: %w", err)
		}
		rep.apply = r.rec.timed("delta.apply", n, func() { rep.upd, err = cat.Apply(r.data.fs, cs) })
		rep.update = rep.diff + rep.apply
	} else {
		t0 := time.Now()
		rep.upd, err = cat.Update(r.data.fs, corpusRoot)
		rep.update = time.Since(t0)
	}
	if err != nil {
		return rep, fmt.Errorf("Update: %w", err)
	}
	rep.dirty = cat.DirtySegments()
	if err := r.checkRound(cat, rd, rep.upd); err != nil {
		return rep, fmt.Errorf("update round %d: %w", n, err)
	}
	if err := r.data.undo(rd); err != nil {
		return rep, err
	}

	// Resident memory is the heap with the serving catalog live minus the
	// heap before it existed: before IndexFS when the built catalog
	// serves, otherwise now, with the built catalog dropped.
	if r.w.Serve != "built" {
		cat = nil
		heap = heapInUse()
	}
	var b *backend
	rep.open = r.rec.timed("open", n, func() {
		if b, err = r.open(rep.dir, cat); err == nil {
			_, err = b.target.fetch(r.ctx, r.firstOp)
		}
	})
	if b != nil {
		defer b.close()
	}
	if err != nil {
		return rep, fmt.Errorf("open: %w", err)
	}
	rep.setup = time.Since(start)
	speed1 := machineSpeed()
	rep.setupSpeed = (speed0 + speed1) / 2

	// Query phase: a discarded warm-up slice, then the timed pass, both
	// the next ops of the run's one stream — never a replay. A traced
	// pass runs one client so that spans nest unambiguously.
	clients := r.clients
	if r.tr != nil {
		clients = 1
	}
	runPass(r.ctx, b.target, r.st.take(r.warmOps), clients, nil, 0)
	rep.residentMB = (float64(heapInUse()) - float64(heap)) / 1e6 // and the GC before the timed pass
	if r.tr != nil {
		r.tr.rec.Store(r.rec)
	}
	rep.queries = runPass(r.ctx, b.target, r.st.take(r.passOps), clients, r.rec, 0)
	if r.tr != nil {
		r.tr.rec.Store(nil)
	}
	if r.rec != nil {
		if rep.counters, err = r.counters(b); err != nil {
			return rep, err
		}
	}

	// Snippet phase: BM25 ops that ask for context windows — for one
	// results page of ten, since a window is built per returned hit and
	// the stream's limits range over 10..49 — one client, the first op
	// discarded.
	ops := r.st.takeClass(classBM25, r.snippetOps+1)
	for i := range ops {
		ops[i].Snippets, ops[i].Limit = true, snippetLimit
	}
	t := b.target
	if b.snippets != nil {
		t = b.snippets
	}
	runPass(r.ctx, t, ops[:1], 1, nil, 0)
	rep.snippets = runPass(r.ctx, t, ops[1:], 1, nil, 0)
	rep.querySpeed = (speed1 + machineSpeed()) / 2
	return rep, nil
}

// savedBytes sums the files SaveDir must have written: the manifest and
// one segment per shard.
func savedBytes(dir string, shards int) (int64, error) {
	names := []string{shard.ManifestName}
	for i := 0; i < shards; i++ {
		names = append(names, shard.SegmentName(i))
	}
	var total int64
	for _, n := range names {
		st, err := os.Stat(filepath.Join(dir, n))
		if err != nil {
			return 0, fmt.Errorf("SaveDir left no %s: %w", n, err)
		}
		total += st.Size()
	}
	return total, nil
}

// checkRound verifies an applied update: the counts match the rewrite,
// the token planted in added files finds exactly those files, and no
// deleted file answers a query for a term it contained.
func (r *run) checkRound(cat *desksearch.Catalog, rd *round, upd desksearch.UpdateStats) error {
	if upd.Added != len(rd.added) || upd.Modified != len(rd.modified) || upd.Deleted != len(rd.deleted) || upd.SkippedFiles != 0 {
		return fmt.Errorf("Update reported %+v, round rewrote +%d ~%d -%d", upd, len(rd.added), len(rd.modified), len(rd.deleted))
	}
	resp, err := cat.Query(r.ctx, desksearch.Query{Text: plantedToken})
	if err != nil {
		return err
	}
	if resp.Total != len(rd.added) || len(resp.Hits) != len(rd.added) {
		return fmt.Errorf("planted token found in %d files, %d were added", resp.Total, len(rd.added))
	}
	for _, h := range resp.Hits {
		// This also proves hits name files the way the corpus does, which
		// the deleted-file check below relies on.
		if !slices.Contains(rd.added, h.Path) {
			return fmt.Errorf("planted token found in %s, which no round added", h.Path)
		}
	}
	for i, p := range rd.deleted {
		if rd.deletedTerm[i] == "" {
			continue
		}
		resp, err := cat.Query(r.ctx, desksearch.Query{Text: rd.deletedTerm[i]})
		if err != nil {
			return err
		}
		for _, h := range resp.Hits {
			if h.Path == p {
				return fmt.Errorf("deleted file %s still answers %q", p, rd.deletedTerm[i])
			}
		}
	}
	return nil
}

// open boots the workload's serving configuration over the saved
// directory. built is the live catalog of a "built" workload, which
// serves it as is and opens the directory only to prove it loads.
func (r *run) open(dir string, built *desksearch.Catalog) (*backend, error) {
	switch r.w.Serve {
	case "built":
		loaded, err := desksearch.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if _, err := (catalogTarget{loaded}).fetch(r.ctx, r.firstOp); err != nil {
			return nil, err
		}
		return &backend{target: catalogTarget{built}, cat: built}, nil
	case "heap":
		cat, err := desksearch.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return &backend{target: catalogTarget{cat}, cat: cat}, nil
	case "lazy":
		cat, err := desksearch.OpenDir(dir, desksearch.Options{BlockCacheBytes: lazyCacheBytes})
		if err != nil {
			return nil, err
		}
		if !cat.Lazy() {
			cat.Close()
			return nil, errors.New("OpenDir fell back to an eager load")
		}
		return &backend{target: catalogTarget{cat}, cat: cat, closers: []func(){func() { cat.Close() }}}, nil
	case "node":
		cat, err := desksearch.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return serveNode(cat, r.tr, r.clients)
	case "fleet":
		return serveFleet(r.ctx, dir, r.tr, r.clients)
	}
	return nil, fmt.Errorf("unknown serving configuration %q", r.w.Serve)
}
