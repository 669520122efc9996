package search

import "sort"

// topK retains the best k scored hits seen under hitLess, in a bounded
// min-heap with the worst retained hit at the root. Considering a hit is
// O(1) when it does not beat the current worst — the overwhelmingly common
// case once the heap warms up — and O(log k) otherwise, so a partition
// ranks its page contribution in O(m log k) instead of the O(m log m) full
// sort an unlimited query pays.
type topK struct {
	k int
	h []scored
}

// newTopK returns a collector for the best k hits; k <= 0 collects
// nothing (callers use a plain slice for unbounded retrieval).
func newTopK(k int) *topK {
	if k < 0 {
		k = 0
	}
	return &topK{k: k, h: make([]scored, 0, min(k, 1024))}
}

// worse reports whether a ranks below b — the heap's ordering, with the
// worst retained hit at the root.
func worse(a, b scored) bool { return hitLess(b.hit, a.hit) }

// full reports whether the heap holds its k hits — only then does the
// worst retained hit define a meaningful skip threshold, and it can only
// rise from there (consider never replaces the root with a worse hit).
func (t *topK) full() bool { return t.k > 0 && len(t.h) == t.k }

// worst returns the worst retained hit (the heap root); valid only when
// full.
func (t *topK) worst() Hit { return t.h[0].hit }

// consider offers a hit: it is retained iff fewer than k hits are held or
// it beats the worst retained hit, which it then evicts.
func (t *topK) consider(s scored) {
	if t.k == 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		t.up(len(t.h) - 1)
		return
	}
	if hitLess(s.hit, t.h[0].hit) {
		t.h[0] = s
		t.down(0)
	}
}

// ranked destructively sorts the retained hits best-first and returns them.
func (t *topK) ranked() []scored {
	sortScored(t.h)
	return t.h
}

func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.h[i], t.h[parent]) {
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
		if l < n && worse(t.h[l], t.h[worst]) {
			worst = l
		}
		if r < n && worse(t.h[r], t.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// sortScored orders hits best-first under hitLess.
func sortScored(hits []scored) {
	sort.Slice(hits, func(i, j int) bool { return hitLess(hits[i].hit, hits[j].hit) })
}
