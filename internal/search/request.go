package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"desksearch/internal/fanout"
	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Ranking selects how hits are scored.
type Ranking int

const (
	// RankCount scores a hit by how many distinct positive query terms the
	// file contains (coordination ranking) — the v1 behavior and the
	// default.
	RankCount Ranking = iota
	// RankTF scores a hit by the summed occurrence counts (term
	// frequencies) of the positive query terms in the file, so a file
	// that mentions a term many times outranks one that mentions it once.
	RankTF
	// RankBM25 scores a hit by Okapi BM25: per positive term (and per
	// prefix operator, as one pseudo-term), an inverse-document-frequency
	// weight from corpus-global document frequencies times a saturated,
	// length-normalized term frequency (the file table's document
	// lengths). Sharded and unsharded catalogs over the same corpus
	// produce bit-identical BM25 scores: document frequencies aggregate
	// across partitions before scoring starts.
	RankBM25
)

// String returns the ranking's wire name — the value the HTTP rank=
// parameter (on /search and on the broker's worker requests alike) and
// the dsearch -rank flag carry.
func (r Ranking) String() string {
	switch r {
	case RankCount:
		return "count"
	case RankTF:
		return "tf"
	case RankBM25:
		return "bm25"
	default:
		return fmt.Sprintf("Ranking(%d)", int(r))
	}
}

// Request is a query: a parsed boolean expression plus retrieval
// controls. The zero controls return every hit, coordination-ranked.
type Request struct {
	// Query is the parsed boolean expression to evaluate.
	Query *Query
	// Limit caps the number of hits returned; 0 means unlimited. With a
	// limit, each partition retains only its local top Limit+Offset
	// candidates in a bounded min-heap instead of sorting every match,
	// and only the returned page is given paths and terms.
	Limit int
	// Offset skips that many hits before the returned page — pagination's
	// second half. Offset without Limit is honored against the full
	// ranked result.
	Offset int
	// Ranking selects the scoring mode.
	Ranking Ranking
	// PathPrefix, when non-empty, keeps only hits whose path starts with
	// it (a cheap directory filter); filtered-out matches do not count
	// toward Response.Total.
	PathPrefix string
	// Snippets asks for a per-hit context window (Hit.Snippet) built from
	// the index's token positions. Requires a positional catalog
	// (ErrNoPositions otherwise, exactly like phrase queries) and a
	// positive Limit — snippets are generated for the retained page only,
	// never for an unbounded result.
	Snippets bool
	// MaxPrefixTerms caps how many dictionary terms one prefix operator
	// may expand to within a single partition; 0 applies the
	// MaxPrefixTerms package default.
	MaxPrefixTerms int
	// GlobalDF, when non-nil, supplies corpus-wide document-frequency
	// statistics for BM25 ranking in place of the engine's own aggregation
	// — the distributed-serving hook. A broker that fans a query out over
	// workers each holding a subset of the corpus sums every worker's
	// DocFreqs (asked for first, or kept from earlier answers and checked
	// against Response.DF) and attaches the total here, so each
	// worker scores with the exact statistics a single-node evaluation
	// would have used. Ignored by the other ranking modes. The vector must
	// match the query's shape (one entry per positive term and per scoring
	// prefix operator) or the query fails.
	GlobalDF *DocFreqs
}

// Validate is the one check of a request's retrieval controls, shared by
// every entry point that accepts them (the facade's Query.Normalize at the
// edge, Engine.Query for direct callers): a request it passes cannot fail
// evaluation for its shape, only for what the index holds.
func (r *Request) Validate() error {
	switch {
	case r.Query == nil || r.Query.root == nil:
		return errors.New("search: request has no query")
	case r.Limit < 0:
		return fmt.Errorf("search: negative limit %d", r.Limit)
	case r.Offset < 0:
		return fmt.Errorf("search: negative offset %d", r.Offset)
	case r.Limit > 0 && r.Offset > math.MaxInt-r.Limit:
		// A partition keeps its local top Limit+Offset; a sum that wraps
		// would read as "unlimited" and materialise every match.
		return fmt.Errorf("search: limit %d plus offset %d overflows", r.Limit, r.Offset)
	case r.MaxPrefixTerms < 0:
		return fmt.Errorf("search: negative max prefix terms %d", r.MaxPrefixTerms)
	case r.Ranking < RankCount || r.Ranking > RankBM25:
		return fmt.Errorf("search: unknown ranking mode %d", int(r.Ranking))
	case r.Snippets && r.Limit <= 0:
		return errors.New("search: snippets require a positive limit")
	case r.GlobalDF != nil && r.GlobalDF.negative():
		return errors.New("search: negative document frequency in global statistics")
	}
	return nil
}

// DocFreqs is the corpus-global half of BM25 scoring as plain data: the
// live-document count, the total live token count, and one document
// frequency per positive query term and per scoring prefix operator, in
// the query's canonical order. Partitions are document-disjoint, so the
// vectors of two engines serving disjoint partition subsets sum
// element-wise to the vector of the whole corpus — the invariant the
// distributed broker's statistics ride. Docs and Tokens are
// corpus-wide properties of the shared file table, identical on every
// worker of one catalog; a broker verifies rather than sums them.
type DocFreqs struct {
	// Docs is the number of live documents (BM25's N).
	Docs int
	// Tokens is the summed token length of the live documents; Tokens/Docs
	// is BM25's average document length.
	Tokens uint64
	// Terms[i] is the document frequency of the query's i-th positive
	// term, summed over this engine's partitions.
	Terms []int
	// Prefixes[j] is the document frequency of the query's j-th scoring
	// prefix operator — the total size of its expansion unions.
	Prefixes []int
}

// Add accumulates other into d element-wise: document frequencies sum
// (partition subsets are document-disjoint), while Docs and Tokens — equal
// on every worker by construction — are taken from the first operand. It
// reports whether the shapes matched.
func (d *DocFreqs) Add(other *DocFreqs) bool {
	if len(d.Terms) != len(other.Terms) || len(d.Prefixes) != len(other.Prefixes) {
		return false
	}
	for i, v := range other.Terms {
		d.Terms[i] += v
	}
	for j, v := range other.Prefixes {
		d.Prefixes[j] += v
	}
	return true
}

// negative reports whether any count in d is below zero. A frequency above
// Docs is allowed: after deletions a broker's cached sums can exceed the
// live count, and verify-then-return corrects them.
func (d *DocFreqs) negative() bool {
	neg := func(v int) bool { return v < 0 }
	return d.Docs < 0 || slices.ContainsFunc(d.Terms, neg) || slices.ContainsFunc(d.Prefixes, neg)
}

// DocFreqs computes the engine's local document-frequency vector for q:
// per positive term, the DocFreq summed over the engine's partitions
// (answered from term dictionaries, no posting blocks decoded); per
// scoring prefix operator, the summed size of its expansion unions. It is
// what a distributed broker sums across workers for BM25 — cheap enough to
// run as a separate round-trip before the query itself, and the same
// vector every Query reports in Response.DF. Expansion obeys the same
// prefix-expansion cap as evaluation — maxPrefixTerms, with 0 meaning the
// MaxPrefixTerms default — so an over-broad prefix fails here, before any
// worker evaluates anything. A panic fails it with CodeInternal, as in
// Query.
func (e *Engine) DocFreqs(ctx context.Context, q *Query, maxPrefixTerms int) (_ *DocFreqs, err error) {
	if q == nil || q.root == nil {
		return nil, fmt.Errorf("search: request has no query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer recoverInternal(&err)
	e.mu.RLock()
	defer e.mu.RUnlock()
	marks := e.corruptionMarks()
	expansions, err := e.expandAll(ctx, q, maxPrefixTerms, false)
	if err != nil {
		return nil, err
	}
	if err := e.corruptedSince(marks); err != nil {
		return nil, err
	}
	return e.localDF(q, expansions, nil), nil
}

// verifier is what a partition that verifies its posting data as it reads
// it (segment.Reader) offers beyond index.Partition. Such a read has no
// error return: a block that fails its checksum reads as an absent term,
// which would make the answer silently incomplete. The engine therefore
// brackets every evaluation with Corruptions and fails the query when the
// count moved. A concurrent query that hit a bad block fails this one too;
// it is the partition that is unfit, not the query.
type verifier interface {
	Corruptions() uint64
	Err() error
}

// corruptionMarks reads every verifying partition's corruption count; nil
// when there is none (a heap engine). The caller holds e.mu.
func (e *Engine) corruptionMarks() []uint64 {
	var marks []uint64
	for i, ix := range e.indices {
		if v, ok := ix.(verifier); ok {
			if marks == nil {
				marks = make([]uint64, len(e.indices))
			}
			marks[i] = v.Corruptions()
		}
	}
	return marks
}

// corruptedSince reports, as a typed QueryError, the first partition whose
// corruption count moved since marks were taken.
func (e *Engine) corruptedSince(marks []uint64) error {
	if marks == nil {
		return nil
	}
	for i, ix := range e.indices {
		if v, ok := ix.(verifier); ok && v.Corruptions() != marks[i] {
			return &QueryError{Code: CodeSegmentCorrupt,
				Err: fmt.Errorf("%w: partition %d (first fault: %v)", ErrSegmentCorrupt, i, v.Err())}
		}
	}
	return nil
}

// eachPartition calls fn once per partition and returns when every call
// has: through fanout.Run, on the calling goroutine and the process's
// fan-out workers when the engine has several partitions, inline when it
// has one, unless ctx is already done. A panic in fn fails the query, not
// the process: it is recovered where it was raised and returned as a
// QueryError with CodeInternal, the first in partition order when several
// partitions panic. The caller holds e.mu.
func (e *Engine) eachPartition(ctx context.Context, fn func(i int, ix index.Partition)) error {
	if len(e.indices) == 1 && ctx.Err() != nil {
		return nil
	}
	return fanout.Run(len(e.indices), func(i int) error {
		return callPartition(fn, i, e.indices[i])
	})
}

// callPartition calls fn(i, ix) and turns a panic in it into the query's
// CodeInternal error.
func callPartition(fn func(i int, ix index.Partition), i int, ix index.Partition) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &QueryError{Code: CodeInternal, Err: fmt.Errorf("%w: partition %d: %v", ErrInternal, i, v)}
		}
	}()
	fn(i, ix)
	return nil
}

// recoverInternal, deferred by an entry point before it takes the
// engine's lock, turns a panic on the request goroutine — outside the
// fan-out callPartition guards — into the request's CodeInternal error.
// Deferred first, it runs last, after the entry point's own deferred
// unlock.
func recoverInternal(err *error) {
	if v := recover(); v != nil {
		*err = &QueryError{Code: CodeInternal, Err: fmt.Errorf("%w: %v", ErrInternal, v)}
	}
}

// expandAll expands q's prefix operators on every partition, under the
// maxPrefixTerms cap; the result is nil when q has none. positions asks
// for unions that carry positions (see expandPrefixes). On failure it
// reports the first failing partition in partition order, so the reported
// prefix does not vary with scheduling.
func (e *Engine) expandAll(ctx context.Context, q *Query, maxPrefixTerms int, positions bool) ([][]*postings.List, error) {
	if len(q.prefixes) == 0 {
		return nil, nil
	}
	expansions := make([][]*postings.List, len(e.indices))
	errs := make([]error, len(e.indices))
	err := e.eachPartition(ctx, func(i int, ix index.Partition) {
		expansions[i], errs[i] = expandPrefixes(ix, q, maxPrefixTerms, positions)
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return expansions, nil
}

// PartitionStat is one partition's share of a query's work.
type PartitionStat struct {
	// Partition is the index's position in the engine's partition list.
	Partition int
	// Matched counts the partition's matches after path filtering —
	// before the top-k truncation, so partition Matched values sum to
	// Response.Total.
	Matched int
	// Duration is the partition's evaluation wall time.
	Duration time.Duration
}

// Response is the result of a v2 query.
type Response struct {
	// Hits is the requested page, ordered by descending score then
	// ascending file ID.
	Hits []Hit
	// Total is the number of matches across all partitions — the count
	// pagination pages through, independent of Limit/Offset.
	Total int
	// Partitions reports per-partition match counts and timings, in
	// partition order.
	Partitions []PartitionStat
	// DF is the engine's own document-frequency vector for the query, read
	// under the same view of the index as the evaluation, whatever the
	// ranking. Under BM25 without Request.GlobalDF it is what the scores
	// were computed from. With it, it is this engine's share of those
	// statistics: a broker sums the shares of its workers and, when the sum
	// equals the vector it sent, knows the page is the one a single node
	// would have produced.
	DF *DocFreqs
}

// partResult is one partition's contribution to a query.
type partResult struct {
	cands   []scored // ranked; every match when the query is unlimited
	matched int
	dur     time.Duration
	// err is the partition's evaluation failure (a phrase query against a
	// partition without positions); it fails the whole query.
	err error
	// df is the partition's document frequency per positive term, read off
	// the scorers' iterators so that a ranking other than BM25 reports
	// Response.DF without probing the dictionaries again; nil under BM25
	// and where no document matched.
	df []int
}

// Query evaluates req over every partition and returns the requested page.
//
// With more than one partition the query fans out over the partitions on
// the calling goroutine and the process's fan-out workers (fanout.Run);
// each partition evaluates, scores, and keeps its local top Limit+Offset
// candidates — score, file and matched-term mask, no path — in a bounded
// min-heap (every match when unbounded), and the per-partition ranked
// lists are k-way merged only until the page is full. Only the page's
// candidates become Hits with a path and terms, and snippets are built
// for those alone, each in its owning partition. Cancellation is honored
// between evaluation steps: a context canceled mid-fan-out aborts the
// in-flight partitions at their next step boundary and Query returns
// ctx.Err() once every partition has stopped. A panic anywhere in the
// evaluation fails the query with CodeInternal and releases the engine's
// lock.
func (e *Engine) Query(ctx context.Context, req Request) (_ *Response, err error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	defer recoverInternal(&err)
	unis := e.lockShared()
	defer e.mu.RUnlock()

	marks := e.corruptionMarks()

	// Prefix operators expand before evaluation fans out: the cap error
	// must not depend on boolean short-circuiting, and BM25 needs every
	// partition's expansion to aggregate global document frequencies.
	// Snippet anchors are the one reader of an expansion's positions.
	expansions, err := e.expandAll(ctx, req.Query, req.MaxPrefixTerms, req.Snippets)
	if err != nil {
		return nil, err
	}
	// BM25 needs the local vector before it scores; the other rankings
	// read it off their scorers after evaluation (see partResult.df).
	var bm *bm25Stats
	var local *DocFreqs
	if req.Ranking == RankBM25 {
		local = e.localDF(req.Query, expansions, nil)
		df := local
		if req.GlobalDF != nil {
			df = req.GlobalDF
		}
		if bm, err = newBM25Stats(req.Query, df); err != nil {
			return nil, err
		}
	}

	// Each partition only ever contributes to one page of Limit hits at
	// Offset, so its local top Limit+Offset bound every merge outcome.
	k := 0
	if req.Limit > 0 {
		k = req.Limit + req.Offset
	}
	parts := make([]partResult, len(e.indices))
	err = e.eachPartition(ctx, func(i int, ix index.Partition) {
		var exp []*postings.List
		if expansions != nil {
			exp = expansions[i]
		}
		parts[i] = e.queryOne(ctx, ix, unis[i], req, k, exp, bm)
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.corruptedSince(marks); err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
	}

	if local == nil {
		local = e.localDF(req.Query, expansions, parts)
	}
	resp := &Response{Partitions: make([]PartitionStat, len(parts)), DF: local}
	ranked := make([][]scored, len(parts))
	for i, p := range parts {
		resp.Total += p.matched
		resp.Partitions[i] = PartitionStat{Partition: i, Matched: p.matched, Duration: p.dur}
		ranked[i] = p.cands
	}
	merged, owners := mergeRanked(ranked, k, compareScored)
	if req.Offset > 0 {
		if req.Offset >= len(merged) {
			merged, owners = nil, nil
		} else {
			merged, owners = merged[req.Offset:], owners[req.Offset:]
		}
	}
	if req.Limit > 0 && len(merged) > req.Limit {
		merged, owners = merged[:req.Limit], owners[:req.Limit]
	}
	resp.Hits = e.pageHits(req.Query, merged)
	if req.Snippets && len(resp.Hits) > 0 {
		if err := e.snippetPage(ctx, req.Query, expansions, resp.Hits, owners, marks); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// pageHits turns the page's candidates into Hits, each with its path and
// the score labels — the positive terms, then the canonical prefix
// operators — its mask selects. It is the one place a candidate is named.
func (e *Engine) pageHits(q *Query, page []scored) []Hit {
	if len(page) == 0 {
		return nil
	}
	labels := slices.Clip(q.positive) // an append must not write into q
	for _, ord := range q.scorePrefixes {
		labels = append(labels, q.prefixes[ord]+"*")
	}
	hits := make([]Hit, len(page))
	for i, c := range page {
		hits[i] = Hit{File: c.file, Path: e.files.Path(c.file), Score: c.score, Terms: termsFromMask(labels, c.mask)}
	}
	return hits
}

// snippetPage builds the Snippets of page, the returned hits only, each in
// the partition owners names: the page's hits are grouped by owner and
// every owner runs one buildSnippets over its group, fanned out like the
// evaluation. A block found corrupt on the way fails the query, as during
// evaluation.
func (e *Engine) snippetPage(ctx context.Context, q *Query, expansions [][]*postings.List, page []Hit, owners []int, marks []uint64) error {
	groups := make([][]*Hit, len(e.indices))
	for i := range page {
		groups[owners[i]] = append(groups[owners[i]], &page[i])
	}
	err := e.eachPartition(ctx, func(i int, ix index.Partition) {
		if len(groups[i]) == 0 {
			return
		}
		var exp []*postings.List
		if expansions != nil {
			exp = expansions[i]
		}
		buildSnippets(ix, q, exp, groups[i])
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.corruptedSince(marks)
}

// queryOne evaluates req against a single partition in one pass: the
// root's cursor yields each match in ascending ID order, and the match is
// filtered, scored and offered to the local top k (every match is kept
// when k == 0) where it stands, with no match list in between. exp is the
// partition's prefix expansion unions (nil without prefix operators) and
// bm the request's global BM25 statistics (nil for other rankings).
func (e *Engine) queryOne(ctx context.Context, ix index.Partition, universe *postings.List, req Request, k int, exp []*postings.List, bm *bm25Stats) partResult {
	start := time.Now()
	// Phrase queries and snippets are rejected on position-free partitions
	// before evaluation, not inside it: AND's empty-leg short-circuit could
	// otherwise skip the phrase node, making the error appear and
	// disappear with term order. (evalPhrase still checks per term list,
	// which covers partially positional lists inside a positional index.)
	if (req.Query.hasPhrase || req.Snippets) && !ix.Positional() {
		return partResult{err: errNoPositions, dur: time.Since(start)}
	}
	env := &evalEnv{ctx: ctx, ix: ix, universe: universe, prefixes: exp}
	root, err := env.open(req.Query.root)
	if err != nil {
		return partResult{err: err, dur: time.Since(start)}
	}
	if root == nil || ctx.Err() != nil {
		return partResult{dur: time.Since(start)}
	}

	// One scorer per positive term, then per scored prefix pseudo-term. A
	// term or prefix that is a leg of the root shares the leg: the cursor
	// has already placed it, so scoring reads its Count where it stands
	// and the term is not found again. Any other — a term only inside a
	// phrase or a nested group — opens its own iterator and seeks it
	// forward through the matches. The accumulation order (positive terms
	// in query order, then prefixes in scorePrefixes order) is part of the
	// API's determinism contract: BM25 adds float terms in this exact
	// sequence, so any partitioning of the corpus — and either storage
	// backend — produces bit-identical scores.
	type scorer struct {
		it  index.PostingIterator // nil when the term is absent here
		leg *leg                  // the root leg it shares, if any
		idf float64
		bit int
	}
	scorers := make([]scorer, 0, len(req.Query.positive)+len(req.Query.scorePrefixes))
	for ti, term := range req.Query.positive {
		sc := scorer{bit: ti}
		if bm != nil {
			sc.idf = bm.idfTerm[ti]
		}
		if l := root.named(term, false); l != nil {
			sc.it, sc.leg = l.it, l
		} else {
			sc.it = ix.Iterator(term)
		}
		scorers = append(scorers, sc)
	}
	var df []int
	if bm == nil {
		df = make([]int, len(req.Query.positive))
		for ti, sc := range scorers {
			if sc.it != nil {
				df[ti] = sc.it.Len()
			}
		}
	}
	for pi, ord := range req.Query.scorePrefixes {
		sc := scorer{bit: len(req.Query.positive) + pi}
		if bm != nil {
			sc.idf = bm.idfPrefix[pi]
		}
		if l := root.named(req.Query.prefixes[ord], true); l != nil {
			sc.it, sc.leg = l.it, l
		} else {
			sc.it = postings.NewIterator(exp[ord])
		}
		scorers = append(scorers, sc)
	}

	// WAND-style max-score skipping (BM25 top-k only): rem[i] bounds from
	// above what scorers i.. can still add to a document's score. Once
	// the heap is full, a document whose partial score plus rem cannot
	// reach the heap's worst retained score is dropped without seeking
	// its remaining scorers — matched IDs ascend, so an exact tie would
	// lose the File tie-break anyway and skipping it is sound. wandSlack
	// absorbs the associativity gap between the precomputed bound sum and
	// the sequential accumulation it bounds (≤ a few ulps per scorer);
	// scores and bounds are nonnegative, so inflating the bound only
	// makes skipping more conservative, never wrong.
	const wandSlack = 1 + 1e-12
	wand := bm != nil && k > 0
	var rem []float64
	if wand {
		rem = make([]float64, len(scorers)+1)
		for i := len(scorers) - 1; i >= 0; i-- {
			rem[i] = rem[i+1]
			if scorers[i].it != nil {
				rem[i] += bm.maxScore(scorers[i].idf, scorers[i].it.MaxCount())
			}
		}
	}

	// Selection: filter each match by path prefix, score it, and feed a
	// bounded heap (or collect everything when unbounded). A count is
	// read only when the ranking adds it up: under RankCount a lazy
	// block's frequency section is never located.
	res := partResult{df: df}
	heap := newTopK(k)
	for root.next() {
		id := root.id
		if req.PathPrefix != "" && !strings.HasPrefix(e.files.Path(id), req.PathPrefix) {
			continue
		}
		res.matched++
		var dl uint32
		if bm != nil {
			dl = e.files.Tokens(id)
		}
		var score float64
		var mask uint64
		skipped := false
		for si := range scorers {
			if wand && heap.full() {
				if (score+rem[si])*wandSlack <= heap.worst().score {
					skipped = true
					break
				}
			}
			sc := &scorers[si]
			switch {
			case sc.it == nil:
				continue
			case sc.leg != nil:
				if !root.on(sc.leg) {
					continue
				}
			case !sc.it.SeekGE(id):
				sc.it = nil // exhausted; no later match can hit it
				continue
			case sc.it.ID() != id:
				continue
			}
			switch req.Ranking {
			case RankBM25:
				score += bm.score(sc.idf, sc.it.Count(), dl)
			case RankTF:
				score += float64(sc.it.Count())
			default:
				score++
			}
			if sc.bit < 64 {
				mask |= 1 << uint(sc.bit)
			}
		}
		if skipped {
			continue
		}
		s := scored{score: score, file: id, mask: mask}
		if k > 0 {
			heap.consider(s)
		} else {
			res.cands = append(res.cands, s)
		}
	}
	if ctx.Err() != nil {
		return partResult{dur: time.Since(start)}
	}
	if k > 0 {
		res.cands = heap.ranked()
	} else {
		sortScored(res.cands)
	}
	res.dur = time.Since(start)
	return res
}

// termsFromMask expands a matched-term bitmask back into the query's score
// labels — the positive terms followed by the canonical prefix operators —
// preserving query order.
func termsFromMask(labels []string, mask uint64) []string {
	if mask == 0 {
		return nil
	}
	out := make([]string, 0, 4)
	for i, label := range labels {
		if i >= 64 {
			break
		}
		if mask&(1<<uint(i)) != 0 {
			out = append(out, label)
		}
	}
	return out
}
