package search

import (
	"errors"
	"math"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// ErrNoPositions reports a phrase query against an index that carries no
// token positions. Phrase adjacency cannot be decided without them; the
// catalog must be rebuilt (or re-indexed) with positions enabled.
var ErrNoPositions = errors.New("search: index built without positions (rebuild with positions enabled to run phrase queries)")

// evalPhrase computes the files in which terms occur at consecutive token
// positions within one partition — the positional-index phrase walk, run
// per partition exactly like every other per-file predicate (a file's
// positions live in its owning partition).
//
// The walk starts from what is rarest, so the time goes where a match is
// possible. Across files the term with the smallest document frequency
// drives: every other slot's cursor gallops to each driver ID, and a miss
// moves on to the driver's next ID, so a common term's postings between
// two rare IDs are jumped rather than scanned and no candidate list is
// built. Inside a candidate file phraseIn does the same with positions.
// Every slot has its own cursors, so a repeated word ("a b a") is just
// another slot. Scratch is allocated once per call and no position run is
// copied.
//
// A term missing from the partition yields an empty result; a term present
// without positions yields ErrNoPositions, since adjacency would otherwise
// be guessed.
func evalPhrase(ix index.Partition, terms []string) (*postings.List, error) {
	n := len(terms)
	lists := make([]*postings.List, n)
	for i, t := range terms {
		l := ix.Lookup(t)
		if l == nil {
			return &postings.List{}, nil
		}
		lists[i] = l
	}
	if n == 1 {
		return lists[0], nil
	}
	driver := 0
	for k, l := range lists {
		if !l.HasPositions() {
			return nil, errNoPositions
		}
		if l.Len() < lists[driver].Len() {
			driver = k
		}
	}

	cursors := make([]int, 2*n)
	docs, pos := cursors[:n], cursors[n:] // per slot: posting index, phraseIn's scratch
	runs := make([][]uint32, n)
	var hits []postings.FileID
next:
	for i, id := range lists[driver].IDs() {
		for k, l := range lists {
			if k == driver {
				continue
			}
			ids := l.IDs()
			j := postings.Gallop(ids, docs[k], id)
			if j == len(ids) {
				break next // every later driver ID is larger still
			}
			docs[k] = j
			if ids[j] != id {
				continue next
			}
		}
		docs[driver] = i
		for k, l := range lists {
			runs[k] = l.PositionsAt(docs[k])
		}
		if phraseIn(runs, pos) {
			hits = append(hits, id)
		}
	}
	return postings.FromSortedIDs(hits), nil
}

// phraseIn reports whether one file's ascending position runs hold the
// phrase: a start s with s+k in runs[k] for every slot k. The anchor is
// the slot a with the shortest run; each anchor position p names the start
// p−a, and every other slot gallops a forward-only cursor to s+k — the
// targets ascend with p, so no run is read twice and a long run is jumped,
// not scanned. The first full match ends the walk. cur is scratch of
// len(runs).
func phraseIn(runs [][]uint32, cur []int) bool {
	a := 0
	for k, r := range runs {
		cur[k] = 0
		if len(r) < len(runs[a]) {
			a = k
		}
	}
	// A start must leave room for the whole phrase on both sides: p ≥ a
	// (no underflow below position 0) and s+len(runs)−1 ≤ MaxUint32 (no
	// wrap past the last representable position).
	off, last := uint32(a), math.MaxUint32-uint32(len(runs)-1)
next:
	for _, p := range runs[a] {
		if p < off {
			continue
		}
		s := p - off
		if s > last {
			return false
		}
		for k, r := range runs {
			if k == a {
				continue
			}
			t := s + uint32(k)
			j := postings.Gallop(r, cur[k], t)
			if j == len(r) {
				return false // every later start needs a larger position still
			}
			cur[k] = j
			if r[j] != t {
				continue next
			}
		}
		return true
	}
	return false
}
