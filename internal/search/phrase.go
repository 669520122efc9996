package search

import (
	"errors"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// ErrNoPositions reports a phrase query against an index that carries no
// token positions. Phrase adjacency cannot be decided without them; the
// catalog must be rebuilt (or re-indexed) with positions enabled.
var ErrNoPositions = errors.New("search: index built without positions (rebuild with positions enabled to run phrase queries)")

// evalPhrase computes the files in which terms occur at consecutive token
// positions within one partition: the candidate set is the plain
// intersection of the terms' posting lists, and each candidate is kept
// only if some occurrence of terms[0] at position p is followed by
// terms[k] at position p+k for every k — the classic positional-index
// phrase walk, run per partition exactly like every other per-file
// predicate (a file's positions live in its owning partition).
//
// A term missing from the partition yields an empty result; a term present
// without positions yields ErrNoPositions, since adjacency would otherwise
// be guessed.
func evalPhrase(ix index.Partition, terms []string) (*postings.List, error) {
	lists := make([]*postings.List, len(terms))
	for i, t := range terms {
		l := ix.Lookup(t)
		if l == nil {
			return &postings.List{}, nil
		}
		lists[i] = l
	}
	if len(lists) == 1 {
		return lists[0], nil
	}
	for _, l := range lists {
		if !l.HasPositions() {
			return nil, errNoPositions
		}
	}
	cand := lists[0]
	for _, l := range lists[1:] {
		cand = postings.Intersect(cand, l)
		if cand.Len() == 0 {
			return cand, nil
		}
	}

	// Candidates ascend, and so do the posting lists, so one forward-only
	// cursor per list finds each candidate's posting without re-searching.
	cursors := make([]int, len(lists))
	var hits []postings.FileID
	var run []uint32 // scratch: surviving start positions
	for _, id := range cand.IDs() {
		first := true
		for k, l := range lists {
			j := cursors[k]
			ids := l.IDs()
			for ids[j] < id {
				j++
			}
			cursors[k] = j
			pos := l.PositionsAt(j)
			if first {
				run = append(run[:0], pos...)
				first = false
				continue
			}
			run = shiftIntersect(run, pos, uint32(k))
			if len(run) == 0 {
				break
			}
		}
		if len(run) > 0 {
			hits = append(hits, id)
		}
	}
	return postings.FromSortedIDs(hits), nil
}

// shiftIntersect keeps the start positions p in run for which p+k occurs
// in pos, writing the survivors over run's prefix. Both inputs ascend, so
// a single forward pass suffices.
func shiftIntersect(run, pos []uint32, k uint32) []uint32 {
	out := run[:0]
	j := 0
	for _, p := range run {
		target := p + k
		for j < len(pos) && pos[j] < target {
			j++
		}
		if j == len(pos) {
			break
		}
		if pos[j] == target {
			out = append(out, p)
		}
	}
	return out
}
