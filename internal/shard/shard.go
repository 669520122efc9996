// Package shard implements the document-sharded index subsystem: a set of
// independent index partitions, each owning every posting of the files
// hashed to it, queried in parallel and persisted as a checksummed manifest
// plus one segment file per shard.
//
// Sharding is the production step the paper's ReplicatedSearch design hints
// at: its unjoined replicas already are document partitions (each file's
// term block goes to exactly one replica). A sharded build keeps that shape
// and fixes the rule — core.Run sends every term block to the ShardFor shard
// of its file, a hash of the FileID, the standard document-partitioning rule
// of parallel search engines — so every built set is hash-routed, can be
// served as worker subsets, and takes updates where the build put them.
package shard

import (
	"encoding/binary"
	"sync"

	"desksearch/internal/fnv"
	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Set is a document-sharded index: len(shards) partitions over one shared
// file table. Every posting of a given file lives in exactly one shard, so
// a query fanned out over all shards sees each file once and the merged
// hits equal a single-index search.
//
// A set additionally tracks per-shard persistence state for incremental
// saves: which directory it was last saved to or loaded from, each
// segment's whole-file checksum there, and which shards have been dirtied
// by in-place updates since. SaveDir consults that state to rewrite only
// dirty segments.
type Set struct {
	files  *index.FileTable
	shards []*index.Index

	// persistMu guards the persistence state below: SaveDir (reading and
	// rewriting it) may run concurrently with MarkDirty from an update
	// commit or a DirtyCount poll.
	persistMu sync.Mutex
	// savedDir is the directory the set's segments were last persisted in
	// ("" for a set never saved or loaded), savedSums the per-segment
	// whole-file checksums recorded there, and dirty the per-shard
	// modified-since flags. dirty == nil means everything is dirty (a
	// freshly built set).
	savedDir  string
	savedSums []uint32
	dirty     []bool
}

// New returns a set over the given partitions without copying them. The
// caller guarantees the partitions are document-disjoint: the ShardFor-routed
// shards of a sharded build or of Distribute, or an unsharded catalog's own
// partitions being saved as they are (not hash-routed, so such a directory
// cannot be opened as a subset).
func New(files *index.FileTable, shards []*index.Index) *Set {
	return &Set{files: files, shards: shards}
}

// MarkDirty records that shard i has been modified in place since it was
// last persisted, so the next SaveDir rewrites its segment. It matches the
// delta.Target.OnDirty hook.
func (s *Set) MarkDirty(i int) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.dirty != nil {
		s.dirty[i] = true
	}
}

// DirtyCount reports how many segments the next SaveDir to the same
// directory would rewrite. A set never persisted is entirely dirty.
func (s *Set) DirtyCount() int {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.dirty == nil {
		return len(s.shards)
	}
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// cleanSums returns, for a save into dir, the checksums of the segments
// whose on-disk files are already current (nil entries mean "rewrite").
// The snapshot is taken under the persistence lock so a concurrent
// MarkDirty cannot tear it mid-save.
func (s *Set) cleanSums(dir string) []*uint32 {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	out := make([]*uint32, len(s.shards))
	if s.dirty == nil || s.savedDir == "" || s.savedDir != dir {
		return out
	}
	for i := range s.shards {
		if !s.dirty[i] {
			sum := s.savedSums[i]
			out[i] = &sum
		}
	}
	return out
}

// markSaved records a successful save of every segment under dir with the
// given checksums.
func (s *Set) markSaved(dir string, sums []uint32) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.savedDir = dir
	s.savedSums = sums
	s.dirty = make([]bool, len(s.shards))
}

// Files returns the shared file table.
func (s *Set) Files() *index.FileTable { return s.files }

// Shards returns the partitions. Callers must not modify the slice.
func (s *Set) Shards() []*index.Index { return s.shards }

// Len returns the number of shards.
func (s *Set) Len() int { return len(s.shards) }

// Positional reports whether the set carries token positions: a set built
// or loaded positionally has every shard flagged (each segment's header
// flags persist it), and the flag decides how incremental updates
// re-extract.
func (s *Set) Positional() bool {
	for _, ix := range s.shards {
		if ix.Positional() {
			return true
		}
	}
	return false
}

// ShardFor maps a file to its shard: FNV-1 over the FileID's little-endian
// bytes, modulo the shard count. Hashing (rather than id % n) decorrelates
// shard assignment from Stage 1's traversal order, so directory-clustered
// corpora still spread evenly.
func ShardFor(id postings.FileID, n int) int {
	if n <= 1 {
		return 0
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(id))
	return int(fnv.Hash32Bytes(b[:]) % uint32(n))
}

// Distribute re-shards already-built indices: it builds an n-shard set from
// any document-disjoint sources (a single index, unjoined replicas, the
// shards of another set), routing every posting to ShardFor of its file. A
// sharded build does not need it — core.Run routes at insert. One
// goroutine per destination shard scans the sources — which are only read —
// so shard construction parallelizes without locks; each file's shard is
// hashed once up front (every FileID comes from files, so the table covers
// them all) and the per-posting work in the scans is a table lookup.
func Distribute(files *index.FileTable, sources []*index.Index, n int) *Set {
	if n < 1 {
		n = 1
	}
	assign := make([]int32, files.Len())
	for id := range assign {
		assign[id] = int32(ShardFor(postings.FileID(id), n))
	}
	totalTerms := 0
	positional := false
	for _, src := range sources {
		totalTerms += src.NumTerms()
		positional = positional || src.Positional()
	}
	shards := make([]*index.Index, n)
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int32) {
			defer wg.Done()
			dst := index.New(totalTerms / n)
			if positional {
				dst.SetPositional()
			}
			var mine []postings.FileID
			var mineCounts []uint32
			var minePos [][]uint32
			for _, src := range sources {
				src.Range(func(term string, l *postings.List) bool {
					mine, mineCounts, minePos = mine[:0], mineCounts[:0], minePos[:0]
					withPos := l.HasPositions()
					for i, id := range l.IDs() {
						if assign[id] == s {
							mine = append(mine, id)
							if withPos {
								minePos = append(minePos, l.PositionsAt(i))
							} else {
								mineCounts = append(mineCounts, l.CountAt(i))
							}
						}
					}
					if len(mine) > 0 {
						// Filtering an ascending list keeps it ascending,
						// so the sort-free constructors apply; frequencies —
						// and positions, for positional sources — travel
						// with their postings.
						if withPos {
							dst.MergeTerm(term, postings.FromSortedIDPositions(mine, minePos))
						} else {
							dst.MergeTerm(term, postings.FromSortedIDCounts(mine, mineCounts))
						}
					}
					return true
				})
			}
			shards[s] = dst
		}(int32(s))
	}
	wg.Wait()
	return New(files, shards)
}
