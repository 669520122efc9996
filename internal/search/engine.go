package search

import (
	"context"
	"sort"
	"sync"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Hit is one search result. Every layer shares it, from the engine to the
// wire: the json tags are the hit's form in a /search body, where File —
// an internal ID — does not travel.
type Hit struct {
	// File is the matched file's document ID — the ascending half of the
	// tie-break rule: hits order by descending Score under exact float64
	// comparison (scores are never NaN), then ascending File. It is stable
	// for the life of a saved catalog and shared by every worker serving
	// the same directory, which is what lets a distributed merge reproduce
	// the single-node order exactly.
	File postings.FileID `json:"-"`
	// Path is the matched file's path, relative to the indexed root.
	Path string `json:"path"`
	// Score ranks the hit: under RankCount it counts how many
	// distinct positive query terms the file contains (for pure
	// conjunctions every hit scores the same, for OR queries broader
	// matches rank higher); under RankTF it sums the positive terms'
	// occurrence counts in the file; under RankBM25 it is the BM25
	// relevance score (see RankBM25). Coordination and TF scores are small
	// integers represented exactly in a float64, so the v3 float widening
	// loses nothing for them.
	Score float64 `json:"score"`
	// Terms lists the positive query terms the file contains, in the
	// query's term order, followed by matched prefix operators rendered in
	// their canonical "repor*" form — the matched-term metadata of the v2
	// API. Only the first 64 positive terms of a query are tracked; nil
	// when none matched (pure NOT queries).
	Terms []string `json:"terms,omitempty"`
	// Snippet is the hit's context window, present only when the request
	// set Snippets and the file yielded one (see Snippet). nil otherwise.
	Snippet *Snippet `json:"snippet,omitempty"`
}

// Engine executes queries over one or more indices sharing a file table —
// unjoined replicas or the shards of a shard.Set; both partition the corpus
// by document, which is all the engine relies on. It is the paper's
// Implementation 3 made whole: "the search can work with multiple indices
// in parallel".
//
// Queries may run concurrently with each other. Mutating the underlying
// indices or file table — the incremental-update path — must go through
// Maintain, which excludes in-flight queries and drops the cached
// per-partition universes that would otherwise keep answering for deleted
// files.
type Engine struct {
	files   *index.FileTable
	indices []index.Partition
	// Parallel fans query evaluation out with one goroutine per index.
	// Off, partitions are searched sequentially (the ablation baseline).
	Parallel bool

	// mu guards the indices, the file table, and the universe cache:
	// queries hold it shared, Maintain holds it exclusively.
	mu sync.RWMutex
	// universes caches, per index, the posting list of files that index is
	// responsible for (the complement base for NOT); nil means not yet
	// computed or invalidated by an update.
	universes []*postings.List
	// universeFn, when non-nil, replaces computeUniverses — the hook for
	// engines whose partitions are a subset of a larger corpus (a
	// distributed worker), where the default "every live file not covered
	// here is an orphan of partition 0" rule would wrongly claim every
	// remote document for NOT queries. Set via SetUniverses.
	universeFn func() []*postings.List
	// gen counts committed mutations: every Maintain or Swap increments
	// it, so a cache keyed on (generation, query) can never serve a result
	// computed before an update as if it were current.
	gen uint64
}

// NewEngine returns an engine over the given partitions — heap indices,
// lazy segment readers, or a mix. For a joined or shared index pass
// exactly one; for Implementation 3 or a shard set pass every partition.
// (A []*index.Index converts via index.Partitions.)
func NewEngine(files *index.FileTable, parts ...index.Partition) *Engine {
	return &Engine{files: files, indices: parts, Parallel: true}
}

// Indices returns the number of indices the engine consults.
func (e *Engine) Indices() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.indices)
}

// Maintain runs f — an index or file-table mutation — with every query
// excluded, then invalidates the cached universes. It is the write side of
// the engine's read-write discipline: incremental updates route their
// commit phase through Maintain so a concurrent query never observes a
// half-applied changeset or a stale NOT universe.
func (e *Engine) Maintain(f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f()
	e.universes = nil
	e.gen++
}

// Generation returns the engine's mutation generation: a counter that
// advances every time an update commits (Maintain) or the partition set is
// replaced (Swap). Two queries that observe the same generation ran
// against the same index state, which is what makes the generation a safe
// component of a result-cache key.
func (e *Engine) Generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen
}

// Swap atomically replaces the engine's file table and partition set with a
// freshly built one — the full-reload counterpart of Maintain's in-place
// mutation. In-flight queries finish against the old partitions; queries
// arriving after Swap returns see only the new ones, at a new generation.
// then, when non-nil, runs inside the same exclusive section, so a caller
// can swap its own bookkeeping (result metadata, shard sets) in the same
// atomic step a query can never observe half-done.
func (e *Engine) Swap(files *index.FileTable, parts []index.Partition, then func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.files = files
	e.indices = parts
	e.universes = nil
	e.gen++
	if then != nil {
		then()
	}
}

// SetUniverses installs f as the engine's universe provider: f must
// return, per partition in partition order, the posting list of files
// that partition answers NOT queries for, and the lists of one call must
// partition the files the engine is responsible for. Distributed workers
// serving a shard subset use it to claim exactly their own documents; the
// default computation (every partition's docs, orphans assigned to
// partition 0) covers whole catalogs. The provider's result is cached
// like the computed universes and re-requested after every Maintain or
// Swap.
func (e *Engine) SetUniverses(f func() []*postings.List) {
	e.mu.Lock()
	e.universeFn = f
	e.universes = nil
	e.mu.Unlock()
}

// ResidentBytes reports each partition's estimated heap footprint, in
// partition order — the observability hook behind the server's /stats.
// Heap indices report their full posting storage; lazy segment readers
// report dictionary plus cached blocks, which is the point of comparison.
func (e *Engine) ResidentBytes() []int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int64, len(e.indices))
	for i, ix := range e.indices {
		out[i] = ix.ResidentBytes()
	}
	return out
}

// View runs f with updates excluded but queries admitted — the read-side
// companion to Maintain for callers that walk the indices outside Query
// (statistics, persistence).
func (e *Engine) View(f func()) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	f()
}

// lockShared acquires the engine's read lock with the universe cache
// filled, returning the cached universes. The caller must RUnlock.
func (e *Engine) lockShared() []*postings.List {
	e.mu.RLock()
	for e.universes == nil {
		// Upgrade to the write lock to fill the cache, then downgrade and
		// re-check: an update may have slipped in between the two locks.
		e.mu.RUnlock()
		e.mu.Lock()
		if e.universes == nil {
			e.universes = e.computeUniverses()
		}
		e.mu.Unlock()
		e.mu.RLock()
	}
	return e.universes
}

// hitLess is the result order and the API's documented tie-break rule:
// descending score under exact float64 comparison, then ascending file ID.
// It is a total order (file IDs are unique, and scores are never NaN),
// which is what makes bounded top-k retrieval return exactly the prefix a
// full sort would. Exact float comparison is deterministic here because
// every ranking accumulates per-document terms in query order within the
// document's one owning partition, so a sharded catalog computes
// bit-identical scores to an unsharded one.
func hitLess(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.File < b.File
}

// MergeRankedPage k-way merges already-ranked hit lists from disjoint
// document partitions into one ranked list, stopping after n hits (n <= 0
// merges everything). Files live in exactly one partition, so the merge is
// a disjoint union and only ordering remains; partition counts are small,
// so a linear scan over the heads beats heap bookkeeping. It is the
// engine's own per-partition merge, exported for the distributed broker:
// each worker returns its local top-n merged under the same total order
// (hitLess), and because top-n of top-n lists equals the global top-n
// under a total order, merging worker pages here reproduces the
// single-node page exactly.
func MergeRankedPage(parts [][]Hit, n int) []Hit {
	// n comes from user-supplied Limit+Offset; never allocate past what
	// the partitions actually hold.
	avail := 0
	for _, p := range parts {
		avail += len(p)
	}
	if n <= 0 || n > avail {
		n = avail
	}
	heads := make([]int, len(parts))
	out := make([]Hit, 0, n)
	for len(out) < n {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if best == -1 || hitLess(p[heads[i]], parts[best][heads[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// computeUniverses builds, per index, the posting list of files that index
// is responsible for — the complement base for NOT. The caller must hold
// e.mu exclusively.
//
// With one index that is simply every live file. With replicas, each
// file's block went to exactly one replica, so replica i's universe is the
// union of its posting lists; live files that appear in no replica at all
// (term-free files) are assigned to replica 0 so that "NOT anything" still
// finds them exactly once. Tombstoned files are excluded throughout —
// their postings are gone from every partition, and allFiles skips them —
// so a deleted file can never resurface through a negated query.
func (e *Engine) computeUniverses() []*postings.List {
	if e.universeFn != nil {
		return e.universeFn()
	}
	universes := make([]*postings.List, len(e.indices))
	if len(e.indices) == 1 {
		universes[0] = e.allFiles()
		return universes
	}
	covered := &postings.List{}
	for i, ix := range e.indices {
		// Docs is a pure ID set by contract — a heap index unions its
		// posting IDs, a lazy segment decodes its persisted doc list —
		// so no merge drags term frequencies along just to cache values
		// NOT evaluation never reads.
		u := ix.Docs()
		universes[i] = u
		covered.Merge(u.Clone())
	}
	orphans := postings.Difference(e.allFiles(), covered)
	if orphans.Len() > 0 && len(universes) > 0 {
		universes[0].Merge(orphans)
	}
	return universes
}

// allFiles returns the live files — tombstones of deleted files keep their
// IDs but must not appear in any query result.
func (e *Engine) allFiles() *postings.List {
	return postings.FromSortedIDs(e.files.LiveIDs(nil))
}

// evalEnv is one partition's evaluation environment: the partition, its
// NOT universe, and the partition's precomputed prefix expansions (indexed
// by prefix ordinal — see expandPrefixes).
type evalEnv struct {
	ctx      context.Context
	ix       index.Partition
	universe *postings.List
	// prefixes[ord] is this partition's expansion union of prefix operator
	// ord; nil when the query has no prefix operators.
	prefixes []*postings.List
}

// eval computes the posting list of files satisfying n within one index,
// checking ctx between evaluation steps: a canceled context makes the
// remaining steps return empty lists immediately, so an in-flight
// partition aborts at the next node boundary. The only evaluation error is
// a phrase over an index without positions (ErrNoPositions), which
// propagates up unwrapped; over-broad prefixes fail earlier, during
// expansion. A termNode result may alias the index's live storage: no
// boolean operator mutates its operands, the result is consumed entirely
// inside queryOne while Query still holds the engine's read lock (updates
// commit under the write lock), and the hits handed back to the caller are
// independent structs — so the lookup stays allocation-free on the hot
// path. A term is a match set here — IDs under OR and NOT and for a
// single-term query, frequencies never — so it asks the partition for
// Counts, not Lookup: a lazy segment then decodes no position.
func (env *evalEnv) eval(n node) (*postings.List, error) {
	if env.ctx.Err() != nil {
		return &postings.List{}, nil
	}
	switch v := n.(type) {
	case termNode:
		l := env.ix.Counts(v.term)
		if l == nil {
			return &postings.List{}, nil
		}
		return l, nil
	case prefixNode:
		return env.prefixes[v.ord], nil
	case phraseNode:
		return evalPhrase(env.ix, v.terms)
	case andNode:
		return env.evalAnd(v)
	case orNode:
		return env.evalOr(v)
	case notNode:
		r, err := env.eval(v.kid)
		if err != nil {
			return nil, err
		}
		return postings.Difference(env.universe, r), nil
	default:
		return &postings.List{}, nil
	}
}

// evalOr unions an OR node's kids, exactly as before the iterator
// redesign: OR consumes whole match sets, so it materializes its kids.
func (env *evalEnv) evalOr(v orNode) (*postings.List, error) {
	acc := &postings.List{}
	for _, k := range v.kids {
		if env.ctx.Err() != nil {
			return acc, nil
		}
		r, err := env.eval(k)
		if err != nil {
			return nil, err
		}
		// WithoutCounts keeps the union a pure ID merge: a kid may be
		// a live counted term list, and match sets never read
		// frequencies (ranking walks the term lists via iterators).
		acc.Merge(r.WithoutCounts())
	}
	return acc, nil
}

// evalAnd intersects an AND node's kids with streaming iterators instead
// of materializing every kid's posting list: term kids never decode
// their blocks on a lazy backend — SeekGE rides the per-block skip
// tables — and in-memory lists gallop. Complex kids (phrase, OR, NOT,
// parenthesized groups) evaluate to lists exactly as before and join
// the intersection through a list-backed iterator.
func (env *evalEnv) evalAnd(v andNode) (*postings.List, error) {
	// Resolve the kids left to right, stopping at the first provably
	// empty one. Term kids answer from the dictionary (DocFreq) and
	// prefix kids from the precomputed expansions, so ordering them
	// costs no posting data; the walk-with-early-exit preserves the old
	// evaluator's observable behavior — kids after an empty one are
	// never evaluated.
	type leg struct {
		term   string // term kid; iterator created after ordering
		isTerm bool
		l      *postings.List // non-term kid: already-evaluated match set
		n      int            // match-count estimate (df / list length)
	}
	legs := make([]leg, 0, len(v.kids))
	for _, k := range v.kids {
		switch kv := k.(type) {
		case termNode:
			n := env.ix.DocFreq(kv.term)
			if n == 0 {
				return &postings.List{}, nil
			}
			legs = append(legs, leg{term: kv.term, isTerm: true, n: n})
		case prefixNode:
			l := env.prefixes[kv.ord]
			if l.Len() == 0 {
				return &postings.List{}, nil
			}
			legs = append(legs, leg{l: l, n: l.Len()})
		default:
			r, err := env.eval(k)
			if err != nil {
				return nil, err
			}
			if r.Len() == 0 {
				return &postings.List{}, nil
			}
			legs = append(legs, leg{l: r, n: r.Len()})
		}
	}
	// Ascending document frequency: the most selective leg drives, so
	// every other leg is asked for at most that many seeks — on skewed
	// rare∧common intersections the dense list is sampled, not walked.
	sort.SliceStable(legs, func(i, j int) bool { return legs[i].n < legs[j].n })
	its := make([]index.PostingIterator, len(legs))
	for i, g := range legs {
		if !g.isTerm {
			its[i] = postings.NewIterator(g.l)
			continue
		}
		it := env.ix.Iterator(g.term)
		if it == nil {
			// DocFreq saw the term but the iterator did not: the block
			// is corrupt, and corrupt means absent, as for Lookup. The
			// partition counted the fault, so Query fails on its way out.
			return &postings.List{}, nil
		}
		its[i] = it
	}
	out := &postings.List{}
	if !its[0].Next() {
		return out, nil
	}
	id := its[0].ID()
	steps := 0
outer:
	for {
		if steps++; steps&1023 == 0 && env.ctx.Err() != nil {
			return out, nil
		}
		for _, it := range its[1:] {
			if !it.SeekGE(id) {
				break outer
			}
			if got := it.ID(); got != id {
				// Leapfrog: the mismatching leg overshot, so hand its
				// position back to the driver as the next candidate.
				if !its[0].SeekGE(got) {
					break outer
				}
				id = its[0].ID()
				continue outer
			}
		}
		out.Add(id)
		if !its[0].Next() {
			break
		}
		id = its[0].ID()
	}
	return out, nil
}
