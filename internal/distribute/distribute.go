// Package distribute implements the work-distribution strategies the paper
// considers for handing filenames to term extractors: round-robin (the
// measured winner), size-aware assignment, contiguous chunks, and work
// stealing.
//
// Round-robin pre-fills k private vectors so extractors run with no
// interference or synchronization at all; the shared locked queue the paper
// measured and rejected ("a pair of lock operations for every filename
// generated and consumed") is not implemented.
package distribute

import (
	"sort"

	"desksearch/internal/walk"
)

// Strategy names a work-distribution algorithm.
type Strategy int

const (
	// RoundRobin deals files to k private vectors in rotation — the
	// paper's fastest approach and the pipeline default.
	RoundRobin Strategy = iota
	// BySize assigns each file to the currently least-loaded worker
	// (longest-processing-time-first bin packing on byte sizes) — the
	// "distribution that took file sizes into account" the paper tried.
	BySize
	// Chunked splits the file list into k contiguous ranges.
	Chunked
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case BySize:
		return "by-size"
	case Chunked:
		return "chunked"
	default:
		return "unknown"
	}
}

// Partition splits files into k private vectors according to the strategy.
// Every input file appears in exactly one vector. k must be ≥ 1; fewer
// files than k leaves some vectors empty.
func Partition(files []walk.FileRef, k int, strategy Strategy) [][]walk.FileRef {
	if k < 1 {
		k = 1
	}
	parts := make([][]walk.FileRef, k)
	switch strategy {
	case BySize:
		// LPT: sort descending by size, then place each file on the
		// least-loaded worker.
		order := make([]int, len(files))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return files[order[a]].Size > files[order[b]].Size
		})
		loads := make([]int64, k)
		for _, idx := range order {
			w := 0
			for j := 1; j < k; j++ {
				if loads[j] < loads[w] {
					w = j
				}
			}
			parts[w] = append(parts[w], files[idx])
			loads[w] += files[idx].Size
		}
	case Chunked:
		per := (len(files) + k - 1) / k
		for w := 0; w < k; w++ {
			lo := w * per
			if lo >= len(files) {
				break
			}
			hi := lo + per
			if hi > len(files) {
				hi = len(files)
			}
			parts[w] = append(parts[w], files[lo:hi]...)
		}
	default: // RoundRobin
		for i, f := range files {
			w := i % k
			parts[w] = append(parts[w], f)
		}
	}
	return parts
}
