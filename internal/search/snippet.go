package search

import (
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

// buildSnippets fills in the Snippet of each hit from one partition's
// positional postings (every hit's positions live in its owning
// partition). Per hit, the anchor is the smallest position at which any
// positive term or scored prefix occurs in the file; the window spans
// snippetRadius tokens to each side, and one scan of the partition's term
// dictionary recovers the window's tokens by position. Hits with no
// anchored match — pure NOT or phrase-free matches of negated-only
// structure — keep a nil Snippet.
func buildSnippets(ix index.Partition, q *Query, prefixes []*postings.List, hits []Hit) {
	if len(hits) == 0 {
		return
	}

	// Anchor pass: cheap per-hit lookups in the matched terms' own lists,
	// each list looked up once for the whole page.
	positive := make([]*postings.List, len(q.positive))
	for j, term := range q.positive {
		positive[j] = ix.Lookup(term)
	}
	lo := make([]uint32, len(hits))
	hi := make([]uint32, len(hits))
	anchored := make([]bool, len(hits))
	anchorOne := func(i int, l *postings.List) {
		pos := positionsOf(l, hits[i].File)
		if len(pos) == 0 {
			return
		}
		if !anchored[i] || pos[0] < lo[i] {
			anchored[i] = true
			lo[i] = pos[0]
		}
	}
	for i := range hits {
		for _, l := range positive {
			anchorOne(i, l)
		}
		for _, ord := range q.scorePrefixes {
			anchorOne(i, prefixes[ord])
		}
		if anchored[i] {
			anchor := lo[i]
			if anchor > snippetRadius {
				lo[i] = anchor - snippetRadius
			} else {
				lo[i] = 0
			}
			hi[i] = anchor + snippetRadius
		}
	}

	// Window pass: one dictionary scan recovers (position → term) for
	// every anchored hit's window. Each emitted token position belongs to
	// exactly one term, so the windows reassemble without conflicts.
	type snipTok struct {
		pos     uint32
		term    string
		matched bool
	}
	toks := make([][]snipTok, len(hits))
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
	// The only pass in the query stack that touches every term's list.
	// On a lazy partition Range decodes (and caches) every block;
	// snippets on lazy catalogs trade that cost for not holding the
	// index in memory.
	ix.Range(func(term string, l *postings.List) bool {
		if !l.HasPositions() {
			return true
		}
		var matched, matchChecked bool
		for i := range hits {
			if !anchored[i] {
				continue
			}
			pos := positionsOf(l, hits[i].File)
			for _, p := range pos {
				if p < lo[i] || p > hi[i] {
					continue
				}
				if !matchChecked {
					matched, matchChecked = termMatches(term), true
				}
				toks[i] = append(toks[i], snipTok{pos: p, term: term, matched: matched})
			}
		}
		return true
	})

	// Assembly pass: order each window by position, join, and record the
	// byte spans of the matched tokens.
	for i := range hits {
		if !anchored[i] || len(toks[i]) == 0 {
			continue
		}
		w := toks[i]
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
		hits[i].Snippet = &Snippet{Text: b.String(), Highlights: spans}
	}
}
