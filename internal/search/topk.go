package search

import (
	"slices"

	"desksearch/internal/postings"
)

// scored is a ranking candidate: a matched file's score plus the bitmask of
// score labels it matched (bit i = label i of the positive terms, then the
// scoring prefixes; first 64). It holds no pointer, so selection and
// merging move 24-byte values; the Hit — path and Terms — is built only
// for a candidate that reaches the returned page.
type scored struct {
	score float64
	file  postings.FileID
	mask  uint64
}

// compareScored is the result order and the API's documented tie-break
// rule, as a three-way comparison: descending score under exact float64
// comparison, then ascending file ID. It is a total order (file IDs are
// unique, and scores are never NaN), which is what makes bounded top-k
// retrieval return exactly the prefix a full sort would. Exact float
// comparison is deterministic here because every ranking accumulates
// per-document terms in query order within the document's one owning
// partition, so a sharded catalog computes bit-identical scores to an
// unsharded one.
func compareScored(a, b scored) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return int(a.file) - int(b.file) // file IDs are uint32: no overflow
}

// topK retains the best k candidates seen under compareScored, in a
// bounded heap with the worst retained candidate at the root.
// Considering a candidate is O(1) when it does not beat the current
// worst — the overwhelmingly common case once the heap warms up — and
// O(log k) otherwise, so a partition ranks its page contribution in
// O(m log k) instead of the O(m log m) full sort an unlimited query pays.
type topK struct {
	k int
	h []scored
}

// newTopK returns a collector for the best k candidates; k <= 0 collects
// nothing (callers use a plain slice for unbounded retrieval).
func newTopK(k int) *topK {
	if k < 0 {
		k = 0
	}
	return &topK{k: k, h: make([]scored, 0, min(k, 1024))}
}

// full reports whether the heap holds its k candidates — only then does
// the worst retained one define a meaningful skip threshold, and it can
// only rise from there (consider never replaces the root with a worse one).
func (t *topK) full() bool { return t.k > 0 && len(t.h) == t.k }

// worst returns the worst retained candidate (the heap root); valid only
// when full.
func (t *topK) worst() scored { return t.h[0] }

// consider offers a candidate: it is retained iff fewer than k are held or
// it beats the worst retained one, which it then evicts.
func (t *topK) consider(s scored) {
	if t.k == 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		t.up(len(t.h) - 1)
		return
	}
	if compareScored(s, t.h[0]) < 0 {
		t.h[0] = s
		t.down(0)
	}
}

// ranked sorts the retained candidates best-first, in place.
func (t *topK) ranked() []scored {
	sortScored(t.h)
	return t.h
}

func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if compareScored(t.h[i], t.h[parent]) <= 0 {
			break
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

func (t *topK) down(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && compareScored(t.h[l], t.h[worst]) > 0 {
			worst = l
		}
		if r < n && compareScored(t.h[r], t.h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// sortScored orders candidates best-first under compareScored.
func sortScored(cands []scored) { slices.SortFunc(cands, compareScored) }
