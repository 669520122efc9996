package search

import (
	"math"
	"sort"
	"strings"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Span is a half-open byte range [Start, End) into a Snippet's Text.
type Span struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Snippet is a hit's context window, reconstructed from the positional
// index: the tokens around the hit's earliest matched position, in token
// order, joined by single spaces. The index stores normalized terms, not
// raw file bytes, so Text shows the indexed (lower-cased, punctuation-
// stripped) form of the window — enough to see the match in context
// without re-reading the file, which a loaded catalog may not even have
// access to. Highlights lists the byte spans of Text occupied by tokens
// that matched the query's positive terms or prefix operators, ascending.
// Only the hits of the returned page get one, each from its owning
// partition's Window pass.
type Snippet struct {
	Text       string `json:"text"`
	Highlights []Span `json:"highlights,omitempty"`
}

// snippetRadius is the context half-window: how many token positions on
// each side of the anchor the snippet keeps.
const snippetRadius = 5

// positionsOf returns the occurrence positions of file id in l, or nil if
// the list is absent, position-free, or does not contain id.
func positionsOf(l *postings.List, id postings.FileID) []uint32 {
	if l == nil || !l.HasPositions() {
		return nil
	}
	// A binary search, not Gallop: a lookup from the start gallops over
	// about twice as many probes, which measured 10% slower on a page of
	// snippets.
	ids := l.IDs()
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if i == len(ids) || ids[i] != id {
		return nil
	}
	return l.PositionsAt(i)
}

// buildSnippets fills in the Snippet of each of hits, page hits whose
// files partition ix holds (every hit's positions live in its owning
// partition). Per hit, the anchor is the smallest position at which any
// positive term or scored prefix occurs in the file; the window spans
// snippetRadius tokens to each side, clamped to the position range, and
// one ix.Window pass recovers the windows' tokens by position. The anchor
// lookups of the query's own terms are the only lists it reads. Hits with
// no anchored match — pure NOT or phrase-free matches of negated-only
// structure — keep a nil Snippet. It reorders hits.
func buildSnippets(ix index.Partition, q *Query, prefixes []*postings.List, hits []*Hit) {
	// Anchor pass: cheap per-hit lookups in the matched terms' own lists,
	// each list looked up once for the page. Window wants ascending files.
	sort.Slice(hits, func(a, b int) bool { return hits[a].File < hits[b].File })
	positive := make([]*postings.List, len(q.positive))
	for j, term := range q.positive {
		positive[j] = ix.Lookup(term)
	}
	var (
		anchored []*Hit
		files    []postings.FileID
		lo, hi   []uint32
	)
	for _, h := range hits {
		anchor, ok := uint32(0), false
		anchorOn := func(l *postings.List) {
			if pos := positionsOf(l, h.File); len(pos) > 0 && (!ok || pos[0] < anchor) {
				anchor, ok = pos[0], true
			}
		}
		for _, l := range positive {
			anchorOn(l)
		}
		for _, ord := range q.scorePrefixes {
			anchorOn(prefixes[ord])
		}
		if !ok {
			continue
		}
		anchored = append(anchored, h)
		files = append(files, h.File)
		lo = append(lo, anchor-min(anchor, snippetRadius))
		hi = append(hi, anchor+min(math.MaxUint32-anchor, snippetRadius))
	}
	if len(anchored) == 0 {
		return
	}

	// Window pass: (position → term) for every anchored hit's window. Each
	// emitted token position belongs to exactly one term, so the windows
	// reassemble without conflicts.
	type snipTok struct {
		pos     uint32
		term    string
		matched bool
	}
	toks := make([][]snipTok, len(anchored))
	positiveSet := make(map[string]bool, len(q.positive))
	for _, t := range q.positive {
		positiveSet[t] = true
	}
	termMatches := func(term string) bool {
		if positiveSet[term] {
			return true
		}
		for _, ord := range q.scorePrefixes {
			if strings.HasPrefix(term, q.prefixes[ord]) {
				return true
			}
		}
		return false
	}
	// A term's occurrences arrive together, so its match is decided once.
	var last string
	var matched, seen bool
	ix.Window(files, lo, hi, func(i int, term string, pos uint32) {
		if !seen || term != last {
			last, matched, seen = term, termMatches(term), true
		}
		toks[i] = append(toks[i], snipTok{pos: pos, term: term, matched: matched})
	})

	// Assembly pass: order each window by position, join, and record the
	// byte spans of the matched tokens.
	for i, h := range anchored {
		w := toks[i]
		if len(w) == 0 {
			continue
		}
		sort.Slice(w, func(a, b int) bool { return w[a].pos < w[b].pos })
		var b strings.Builder
		var spans []Span
		for j, tk := range w {
			if j > 0 {
				b.WriteByte(' ')
			}
			start := b.Len()
			b.WriteString(tk.term)
			if tk.matched {
				spans = append(spans, Span{Start: start, End: b.Len()})
			}
		}
		h.Snippet = &Snippet{Text: b.String(), Highlights: spans}
	}
}
