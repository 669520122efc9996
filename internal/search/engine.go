package search

import (
	"context"
	"slices"
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
	// API. Only the first 64 of these labels, terms then prefixes, are
	// tracked; nil when none matched (pure NOT queries).
	Terms []string `json:"terms,omitempty"`
	// Snippet is the hit's context window, present only when the request
	// set Snippets and the file yielded one (see Snippet). nil otherwise.
	Snippet *Snippet `json:"snippet,omitempty"`
}

// Engine executes queries over one or more indices sharing a file table —
// the partitions of a shard.Set, or a worker's subset of a saved
// directory; all partition the corpus by document, which is all the
// engine relies on. It is the paper's Implementation 3 made whole: "the
// search can work with multiple indices in parallel".
//
// NOT reads the file table's token lengths: 0 must mean that no partition
// holds the file (see computeUniverses).
//
// Queries may run concurrently with each other. Mutating the underlying
// indices or file table — the incremental-update path — must go through
// Maintain, which excludes in-flight queries and drops the cached
// per-partition universes that would otherwise keep answering for deleted
// files.
type Engine struct {
	files   *index.FileTable
	indices []index.Partition
	// shards[i] is the global shard number of indices[i]: the identity for
	// a whole catalog, the directory's numbers for a worker's subset.
	shards []int

	// mu guards the indices, the file table, and the universe cache:
	// queries hold it shared, Maintain holds it exclusively.
	mu sync.RWMutex
	// universes caches, per index, the posting list of files that index is
	// responsible for (the complement base for NOT); nil means not yet
	// computed or invalidated by an update.
	universes []*postings.List
	// gen counts committed mutations: every Maintain or Swap increments
	// it, so a cache keyed on (generation, query) can never serve a result
	// computed before an update as if it were current.
	gen uint64
}

// NewEngine returns an engine over the given partitions — heap indices,
// lazy segment readers, or a mix — as global shards 0..len(parts)-1: one
// for a single index, every partition of a shard set. (A []*index.Index
// converts via index.Partitions.)
func NewEngine(files *index.FileTable, parts ...index.Partition) *Engine {
	return NewSubsetEngine(files, nil, parts...)
}

// NewSubsetEngine is NewEngine over partitions that serve the given global
// shard numbers, shardIDs[i] for parts[i]: a distributed worker's share of
// a saved directory. nil shardIDs means 0..len(parts)-1.
func NewSubsetEngine(files *index.FileTable, shardIDs []int, parts ...index.Partition) *Engine {
	return &Engine{files: files, indices: parts, shards: orIdentity(shardIDs, len(parts))}
}

// orIdentity returns ids, or 0..n-1 when ids is nil.
func orIdentity(ids []int, n int) []int {
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	return ids
}

// ShardIDs returns each partition's global shard number, in partition
// order, as a fresh slice.
func (e *Engine) ShardIDs() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Clone(e.shards)
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
// mutation. shardIDs are the new partitions' global shard numbers, as for
// NewSubsetEngine. In-flight queries finish against the old partitions;
// queries arriving after Swap returns see only the new ones, at a new
// generation. then, when non-nil, runs inside the same exclusive section,
// so a caller can swap its own bookkeeping (result metadata, shard sets)
// in the same atomic step a query can never observe half-done.
func (e *Engine) Swap(files *index.FileTable, parts []index.Partition, shardIDs []int, then func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.files, e.indices, e.shards = files, parts, orIdentity(shardIDs, len(parts))
	e.universes = nil
	e.gen++
	if then != nil {
		then()
	}
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
// filled, returning the cached universes. The caller must RUnlock. If
// filling the cache panics, lockShared holds no lock when it unwinds.
func (e *Engine) lockShared() []*postings.List {
	e.mu.RLock()
	for e.universes == nil {
		// Upgrade to the write lock to fill the cache, then downgrade and
		// re-check: an update may have slipped in between the two locks.
		e.mu.RUnlock()
		e.fillUniverses()
		e.mu.RLock()
	}
	return e.universes
}

// fillUniverses fills the universe cache under the write lock, unless an
// update or another query got there first.
func (e *Engine) fillUniverses() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.universes == nil {
		e.universes = e.computeUniverses()
	}
}

// compareHits is the result order over hits: compareScored on each hit's
// score and file.
func compareHits(a, b Hit) int {
	return compareScored(scored{score: a.Score, file: a.File}, scored{score: b.Score, file: b.File})
}

// MergeRankedPage k-way merges already-ranked hit lists from disjoint
// document partitions into one ranked list, stopping after n hits (n <= 0
// merges everything). It is the engine's own per-partition merge,
// exported for the distributed broker: each worker returns its local
// top-n merged under the same total order, and because top-n of top-n
// lists equals the global top-n under a total order, merging worker pages
// here reproduces the single-node page exactly.
func MergeRankedPage(parts [][]Hit, n int) []Hit {
	out, _ := mergeRanked(parts, n, compareHits)
	return out
}

// mergeRanked k-way merges lists ranked under cmp, stopping after n
// items (n <= 0 merges everything), and returns, parallel to the merged
// items, the index of the list each came from — the owning partition the
// engine names a candidate and builds its snippet in. Items live in
// exactly one partition, so the merge is a disjoint union and only
// ordering remains; partition counts are small, so a linear scan over the
// heads beats heap bookkeeping.
func mergeRanked[T any](parts [][]T, n int, cmp func(a, b T) int) ([]T, []int) {
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
	out := make([]T, 0, n)
	from := make([]int, 0, n)
	for len(out) < n {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if best == -1 || cmp(p[heads[i]], parts[best][heads[best]]) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, parts[best][heads[best]])
		from = append(from, best)
		heads[best]++
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, from
}

// computeUniverses builds, per index, the posting list of files that index
// is responsible for — the complement base for NOT. The caller must hold
// e.mu exclusively.
//
// A partition answers for its own documents (Docs, a pure ID set), so
// partitions that split the corpus by document split NOT the same way,
// whatever routed the files to them: replicas, hash-routed shards, or a
// worker's subset of either. The live files no partition holds are the
// term-free ones (token length 0: empty, every word filtered out, or
// unreadable), and the partition serving global shard 0 answers for them,
// so across a whole catalog — or every worker of one directory — each is
// found exactly once, and a one-partition catalog's universe is every
// live file. Tombstoned files are skipped: a deleted file can never
// resurface through a negated query.
func (e *Engine) computeUniverses() []*postings.List {
	universes := make([]*postings.List, len(e.indices))
	for i, ix := range e.indices {
		universes[i] = ix.Docs()
	}
	if owner := slices.Index(e.shards, 0); owner >= 0 {
		universes[owner].Merge(e.termFree(universes))
	}
	return universes
}

// termFree returns the live files with a token length of 0 that none of
// held contains. The lookups cost little per term-free file and keep a
// hand-built file table that records no lengths from claiming files twice.
func (e *Engine) termFree(held []*postings.List) *postings.List {
	var ids []postings.FileID
next:
	for id := postings.FileID(0); int(id) < e.files.Len(); id++ {
		if !e.files.Live(id) || e.files.Tokens(id) != 0 {
			continue
		}
		for _, l := range held {
			if l.Contains(id) {
				continue next
			}
		}
		ids = append(ids, id)
	}
	return postings.FromSortedIDs(ids)
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

// eval computes the posting list of files satisfying n within one index —
// a sub-tree that joins a cursor as one leg (see operand). A phrase is its
// walk; anything else is drained from its own cursor, so an OR, an AND or
// a NOT builds its list by adding IDs in ascending order and never merges
// or copies a term's postings. The only evaluation error is a phrase over
// an index without positions (ErrNoPositions), which propagates up
// unwrapped; over-broad prefixes fail earlier, during expansion. A
// canceled context makes the remaining steps return empty lists
// immediately, so an in-flight partition aborts at the next node
// boundary.
func (env *evalEnv) eval(n node) (*postings.List, error) {
	out := &postings.List{}
	if env.ctx.Err() != nil {
		return out, nil
	}
	if v, ok := n.(phraseNode); ok {
		return evalPhrase(env.ix, v.terms)
	}
	c, err := env.open(n)
	if err != nil {
		return nil, err
	}
	for c.next() {
		out.Add(c.id)
	}
	return out, nil
}

// cursor streams the files that satisfy one query node, in ascending ID
// order, document-at-a-time over the node's legs. Under AND — a lone term
// or sub-tree is an AND of one leg — the rarest leg drives and every other
// leg leapfrogs to it with SeekGE, and a candidate that an exclusion leg
// (a NOT kid) lands on is passed over. Under OR the match is the smallest
// ID any leg stands on. After a true next, every AND leg stands on id and
// every OR leg on id or past it (on reports which), so a scorer that
// shares a leg reads its Count where the cursor left it.
type cursor struct {
	ctx  context.Context
	legs []leg
	excl []index.PostingIterator
	or   bool
	// id is the current match, valid after a true next.
	id postings.FileID
	// started records the first next of an OR cursor, which places every
	// leg on its first posting.
	started bool
	steps   int
}

// leg is one input of a cursor. A leg a term or prefix kid opened carries
// its name, so a scorer of the same term or prefix shares the leg instead
// of finding the term again; an OR keeps such a leg for a term absent
// from the partition, with a nil it, done from the start. id and done
// track an OR leg: the ID it stands on, and whether it is exhausted.
type leg struct {
	it     index.PostingIterator
	term   string // "" for a sub-tree or the universe
	prefix bool   // term is a prefix operator's text
	id     postings.FileID
	done   bool
}

// open resolves n's legs into a cursor, or returns nil when n provably
// matches nothing in the partition. Kids resolve left to right: a term
// kid's Iterator is its one dictionary probe, which knows the term's
// document frequency before a posting is read and is nil for an absent
// term (or a corrupt block, which the partition counted; Query fails on
// its way out); a prefix kid reads its precomputed expansion; any other
// kid is evaluated to a list. An AND stops at its first empty leg and
// resolves nothing after it, so a phrase kid behind an absent term is
// never walked. A NOT kid of an AND becomes an exclusion leg, and an AND
// with no other leg — a NOT alone, "-a -b" — drives from the partition's
// universe. A term or prefix that repeats among a node's kids opens one
// leg.
func (env *evalEnv) open(n node) (*cursor, error) {
	kids := []node{n}
	or := false
	switch v := n.(type) {
	case andNode:
		kids = v.kids
	case orNode:
		kids, or = v.kids, true
	}
	c := &cursor{ctx: env.ctx, or: or, legs: make([]leg, 0, len(kids))}
	live := 0
	for _, k := range kids {
		if v, ok := k.(notNode); ok && !c.or {
			it, err := env.operand(v.kid)
			if err != nil {
				return nil, err
			}
			if it != nil {
				c.excl = append(c.excl, it)
			}
			continue
		}
		l := leg{}
		switch v := k.(type) {
		case termNode:
			l.term = v.term
		case prefixNode:
			l.term, l.prefix = v.prefix, true
		}
		if l.term != "" && c.named(l.term, l.prefix) != nil {
			continue
		}
		it, err := env.operand(k)
		if err != nil {
			return nil, err
		}
		switch {
		case it != nil:
			l.it = it
			live++
		case !c.or:
			return nil, nil
		case l.term == "":
			continue
		default:
			l.done = true
		}
		c.legs = append(c.legs, l)
	}
	if !c.or && live == 0 && env.universe.Len() > 0 {
		c.legs = append(c.legs, leg{it: postings.NewIterator(env.universe)})
		live++
	}
	if live == 0 {
		return nil, nil
	}
	if !c.or {
		// Ascending document frequency: the most selective leg drives, so
		// every other leg is asked for at most that many seeks — on skewed
		// rare∧common intersections the dense list is sampled, not walked.
		slices.SortStableFunc(c.legs, func(a, b leg) int { return a.it.Len() - b.it.Len() })
	}
	return c, nil
}

// operand opens n as one leg: a term's streaming iterator, an iterator
// over a prefix operator's expansion, or one over an evaluated sub-tree.
// It is nil when n matches nothing in the partition.
func (env *evalEnv) operand(n node) (index.PostingIterator, error) {
	var l *postings.List
	switch v := n.(type) {
	case termNode:
		return env.ix.Iterator(v.term), nil
	case prefixNode:
		l = env.prefixes[v.ord]
	default:
		var err error
		if l, err = env.eval(n); err != nil {
			return nil, err
		}
	}
	if l.Len() == 0 {
		return nil, nil
	}
	return postings.NewIterator(l), nil
}

// named returns the leg c opened for a term (or, with prefix set, a prefix
// operator's text), or nil when no kid named it.
func (c *cursor) named(term string, prefix bool) *leg {
	for i := range c.legs {
		if l := &c.legs[i]; l.term == term && l.prefix == prefix {
			return l
		}
	}
	return nil
}

// on reports whether l, one of c's legs, stands on the current match.
func (c *cursor) on(l *leg) bool { return !c.or || !l.done && l.id == c.id }

// next advances to the next match, reporting false when there is none —
// or when the context is canceled, which the caller checks. A nil cursor
// matches nothing. Once next has reported false it must not be called
// again.
func (c *cursor) next() bool {
	if c == nil {
		return false
	}
	if c.or {
		return c.nextOr()
	}
	lead := c.legs[0].it
	if !lead.Next() {
		return false
	}
	id := lead.ID()
candidate:
	for !c.canceled() {
		for _, l := range c.legs[1:] {
			if !l.it.SeekGE(id) {
				return false
			}
			if got := l.it.ID(); got != id {
				// Leapfrog: the mismatching leg overshot, so its position
				// is the driver's next candidate.
				if !lead.SeekGE(got) {
					return false
				}
				id = lead.ID()
				continue candidate
			}
		}
		for _, it := range c.excl {
			if it.SeekGE(id) && it.ID() == id {
				if !lead.Next() {
					return false
				}
				id = lead.ID()
				continue candidate
			}
		}
		c.id = id
		return true
	}
	return false
}

// nextOr steps the legs that stood on the last match and takes the
// smallest ID a leg stands on.
func (c *cursor) nextOr() bool {
	if c.canceled() {
		return false
	}
	found := false
	var id postings.FileID
	for i := range c.legs {
		l := &c.legs[i]
		if l.done {
			continue
		}
		if !c.started || l.id == c.id {
			if !l.it.Next() {
				l.done = true
				continue
			}
			l.id = l.it.ID()
		}
		if !found || l.id < id {
			id, found = l.id, true
		}
	}
	c.id, c.started = id, true
	return found
}

// canceled counts a cursor step and checks the context every 1024 steps.
func (c *cursor) canceled() bool {
	c.steps++
	return c.steps&1023 == 0 && c.ctx.Err() != nil
}
