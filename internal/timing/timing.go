// Package timing provides a small concurrency-safe sliding window of
// duration observations with order statistics — the shared primitive
// behind dsearchd's per-partition timing summaries (/stats) and the
// distributed broker's adaptive hedging and timeout policy, both of which
// need "what have recent latencies looked like" rather than an all-time
// aggregate that stale outliers would dominate forever.
package timing

import (
	"slices"
	"sync"
	"time"
)

// DefaultWindowSize is the observation capacity NewWindow uses for a
// non-positive size: large enough for stable p95 estimates.
const DefaultWindowSize = 256

// resortEvery is how many observations a computed Summary stands for
// before Snapshot sorts again. Sorting a full default window on every
// call — the broker asks once per worker request — measured 5.75% of a
// serving fleet's CPU; order statistics over 256 entries barely move in
// 32 observations.
const resortEvery = 32

// Window is a fixed-capacity ring of the most recent duration
// observations. Safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	buf   []time.Duration
	next  int
	full  bool
	count uint64
	// scratch is Snapshot's reusable sort buffer, allocated once at the
	// window's capacity. Snapshot sorts under mu, which keeps the buffer
	// exclusive.
	scratch []time.Duration
	// sum is the last computed Summary and sumAt the value of count it was
	// computed at; zero means none yet, so a window's first Snapshot is
	// always exact.
	sum   Summary
	sumAt uint64
}

// NewWindow returns a window retaining the last size observations
// (DefaultWindowSize when size is non-positive).
func NewWindow(size int) *Window {
	if size <= 0 {
		size = DefaultWindowSize
	}
	return &Window{
		buf:     make([]time.Duration, size),
		scratch: make([]time.Duration, 0, size),
	}
}

// Observe records one duration, displacing the oldest observation once
// the window is full.
func (w *Window) Observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next++
	if w.next == len(w.buf) {
		w.next, w.full = 0, true
	}
	w.count++
	w.mu.Unlock()
}

// Count returns the total number of observations ever recorded, including
// ones that have since left the window.
func (w *Window) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Summary is an order-statistics snapshot of a window's current contents.
type Summary struct {
	// Count is the lifetime observation count (not just the window's).
	Count uint64
	// Min, Median, P95, and Max summarize the retained observations.
	// Median and P95 are nearest-rank order statistics.
	Min, Median, P95, Max time.Duration
}

// Snapshot summarizes the window. ok is false when nothing has been
// observed yet — the zero Summary carries no information then. The order
// statistics are exact on a window's first Snapshot and afterwards lag by
// fewer than resortEvery observations; Count is always current.
func (w *Window) Snapshot() (s Summary, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count == 0 {
		return Summary{}, false
	}
	if w.sumAt == 0 || w.count-w.sumAt >= resortEvery {
		n := w.next
		if w.full {
			n = len(w.buf)
		}
		obs := append(w.scratch[:0], w.buf[:n]...)
		slices.Sort(obs)
		w.sum = Summary{Min: obs[0], Median: obs[(n-1)/2], P95: obs[(n-1)*95/100], Max: obs[n-1]}
		w.sumAt = w.count
	}
	s = w.sum
	s.Count = w.count
	return s, true
}
