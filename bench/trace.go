package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that caused this one, -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: begin and end do nothing, so call sites are the
// same in untraced and traced passes.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs f inside a root span and returns how long f took. It works
// on a nil recorder too, where it only times.
func (r *recorder) timed(name string, op int, f func()) time.Duration {
	s := r.begin(name, -1, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.end(s)
	return d
}

// active returns the ID of the most recently opened span of the given
// name that has not ended, or -1. The traced pass runs one client, so at
// most one front-door span is open when a worker span looks for its parent.
func (r *recorder) active(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if s := &r.spans[i]; s.Name == name && s.End < 0 {
			return s.ID
		}
	}
	return -1
}

// closed returns the finished spans.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once; a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTimes groups span durations and self times by span name.
type layerTimes struct {
	total map[string][]time.Duration
	self  map[string][]time.Duration
}

func groupSpans(spans []span) layerTimes {
	lt := layerTimes{total: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	self := selfTimes(spans)
	for _, s := range spans {
		lt.total[s.Name] = append(lt.total[s.Name], s.End-s.Start)
		lt.self[s.Name] = append(lt.self[s.Name], self[s.ID])
	}
	return lt
}

// medianUS is the median of a layer's durations in microseconds, 0 when
// the layer recorded no span (it did no work on this workload).
func medianUS(ds []time.Duration) float64 { return median(usOf(ds)) }

// printLayerTable writes one row per span name: how often the layer was
// entered, its median duration, its median self time and its total self
// time — the per-layer view of a traced run.
func printLayerTable(w io.Writer, spans []span) {
	lt := groupSpans(spans)
	names := make([]string, 0, len(lt.total))
	for n := range lt.total {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "median_us", "self_med_us", "self_sum_ms")
	for _, n := range names {
		var sum time.Duration
		for _, d := range lt.self[n] {
			sum += d
		}
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f %12.1f\n", n, len(lt.total[n]), medianUS(lt.total[n]), medianUS(lt.self[n]), ms(sum))
	}
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
