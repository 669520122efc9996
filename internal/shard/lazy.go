package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/segment"
)

// LazySet is a sharded index directory opened without materializing it:
// the shared file table from the manifest plus one lazy segment reader per
// opened shard. It is read-only — the query stack runs on it through
// Partitions, but nothing can be added, removed, or re-saved; re-index to
// change it.
//
// A set may hold only a subset of the directory's shards (OpenDirShards,
// the distributed worker's open path). ids maps each reader back to its
// global shard number, and Universes supplies the subset-aware NOT
// complement bases the query engine needs then.
type LazySet struct {
	files   *index.FileTable
	readers []*segment.Reader
	cache   *segment.Cache
	// ids[i] is the global shard number of readers[i]; total is the
	// directory's full shard count. For a whole-directory open ids is the
	// identity and total == len(readers).
	ids   []int
	total int
	// universes, for subset sets, holds the precomputed per-reader NOT
	// complement bases (see Universes); nil for whole-directory opens,
	// which use the engine's default computation.
	universes []*postings.List
}

// ErrNotHashRouted reports a shard-subset open of a directory whose
// segments do not follow the ShardFor hash routing — one saved from
// pipeline replicas rather than built with a shard count. Subset serving
// depends on the routing to decide which worker answers NOT queries for
// which document without seeing the other segments; rebuild the catalog
// with Options.Shards to get a hash-routed directory.
var ErrNotHashRouted = errors.New("shard: directory is not hash-routed (rebuild with a shard count to serve shard subsets)")

// OpenDir opens a sharded index directory lazily: the manifest is read and
// verified in full (it is small — the file table and segment names), but
// each segment contributes only its term dictionary; posting blocks stay
// on disk, mmap'd where the platform allows, decoded per term on demand
// into a cache bounded by cacheBytes (non-positive means
// segment.DefaultCacheBytes, shared across all shards).
//
// Unlike LoadDir, the manifest's whole-file segment checksums are NOT
// verified — doing so would read every posting byte and make open
// O(postings) again. Integrity instead comes from the segment layout
// itself: the dictionary region is checksum-verified at open, and every
// posting block is checked against its dictionary checksum on every read
// the cache does not serve.
func OpenDir(dir string, cacheBytes int64) (*LazySet, error) {
	return OpenDirShards(dir, cacheBytes, nil)
}

// OpenDirShards is OpenDir restricted to a subset of the directory's
// shards — the distributed worker's open path: only the named segments'
// dictionaries are read and mapped, so a worker's startup cost and
// footprint track its share of the corpus, not the whole directory.
// shardIDs lists global shard numbers (duplicates collapse, order does not
// matter); nil or empty opens every shard, identically to OpenDir.
//
// A true subset is only sound on hash-routed directories — ones whose
// every posting lives in the ShardFor shard of its file, i.e. any
// directory built with a shard count. The routing is what lets each
// worker answer NOT queries for exactly its own documents without
// consulting the other segments; it is verified here against each opened
// segment's persisted doc set, and a directory that violates it fails
// with ErrNotHashRouted rather than serving duplicate or missing
// complement results.
func OpenDirShards(dir string, cacheBytes int64, shardIDs []int) (*LazySet, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	total := len(m.names)
	ids, err := normalizeShardIDs(shardIDs, total)
	if err != nil {
		return nil, err
	}
	cache := segment.NewCache(cacheBytes)
	s := &LazySet{
		files:   m.files,
		readers: make([]*segment.Reader, len(ids)),
		cache:   cache,
		ids:     ids,
		total:   total,
	}
	for i, id := range ids {
		r, err := segment.Open(filepath.Join(dir, m.names[id]), cache)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("shard: segment %s: %w", m.names[id], err)
		}
		s.readers[i] = r
	}
	if s.Subset() {
		if err := s.buildSubsetUniverses(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// normalizeShardIDs sorts, de-duplicates, and range-checks a shard subset
// against the directory's shard count; nil/empty means every shard.
func normalizeShardIDs(shardIDs []int, total int) ([]int, error) {
	if len(shardIDs) == 0 {
		ids := make([]int, total)
		for i := range ids {
			ids[i] = i
		}
		return ids, nil
	}
	seen := make(map[int]bool, len(shardIDs))
	ids := make([]int, 0, len(shardIDs))
	for _, id := range shardIDs {
		if id < 0 || id >= total {
			return nil, fmt.Errorf("shard: shard %d out of range (directory has %d shards)", id, total)
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// buildSubsetUniverses computes the per-reader NOT complement bases of a
// subset set from the hash routing: reader i's universe is every live
// file whose ShardFor shard is ids[i]. Each segment's persisted doc set is
// checked against the routing both ways on the way: it must hold no file
// that routes elsewhere and every live file with tokens that routes to it
// (so an empty segment of a replica-saved directory does not pass). Either
// violation proves the directory is not hash-routed and fails the open,
// because the universes of the workers collectively would then
// double-count or drop documents.
func (s *LazySet) buildSubsetUniverses() error {
	mine := make(map[int]int, len(s.ids)) // global shard id -> reader index
	for i, id := range s.ids {
		mine[id] = i
	}
	docs := make([]*postings.List, len(s.readers))
	for i, r := range s.readers {
		docs[i] = r.Docs()
		for _, id := range docs[i].IDs() {
			if got := ShardFor(id, s.total); got != s.ids[i] {
				return fmt.Errorf("%w: segment %d holds file %d, which hash-routes to shard %d",
					ErrNotHashRouted, s.ids[i], id, got)
			}
		}
	}
	perReader := make([][]postings.FileID, len(s.readers))
	for _, id := range s.files.LiveIDs(nil) {
		i, ok := mine[ShardFor(id, s.total)]
		if !ok {
			continue
		}
		if s.files.Tokens(id) > 0 && !docs[i].Contains(id) {
			return fmt.Errorf("%w: file %d hash-routes to segment %d, which does not hold it",
				ErrNotHashRouted, id, s.ids[i])
		}
		perReader[i] = append(perReader[i], id)
	}
	s.universes = make([]*postings.List, len(s.readers))
	for i, ids := range perReader {
		s.universes[i] = postings.FromSortedIDs(ids)
	}
	return nil
}

// Subset reports whether the set holds fewer shards than its directory.
func (s *LazySet) Subset() bool { return len(s.ids) < s.total }

// ShardIDs returns the global shard numbers of the set's readers, in
// reader order (ascending). Callers must not modify the slice.
func (s *LazySet) ShardIDs() []int { return s.ids }

// TotalShards returns the directory's full shard count, regardless of how
// many shards this set opened.
func (s *LazySet) TotalShards() int { return s.total }

// Universes returns the per-reader NOT complement bases of a subset set
// (nil for whole-directory sets, which use the query engine's default
// docs-plus-orphans computation): reader i answers NOT queries for exactly
// the live files that hash-route to its shard, so the workers of one
// directory collectively claim every live file exactly once. The returned
// slice is fresh; the lists are shared and must not be modified.
func (s *LazySet) Universes() []*postings.List {
	if s.universes == nil {
		return nil
	}
	out := make([]*postings.List, len(s.universes))
	copy(out, s.universes)
	return out
}

// Files returns the shared file table.
func (s *LazySet) Files() *index.FileTable { return s.files }

// Len returns the number of shards.
func (s *LazySet) Len() int { return len(s.readers) }

// Readers returns the per-shard segment readers. Callers must not modify
// the slice.
func (s *LazySet) Readers() []*segment.Reader { return s.readers }

// Partitions returns the shards as query-stack partitions.
func (s *LazySet) Partitions() []index.Partition {
	parts := make([]index.Partition, len(s.readers))
	for i, r := range s.readers {
		parts[i] = r
	}
	return parts
}

// Cache returns the shared posting-block cache.
func (s *LazySet) Cache() *segment.Cache { return s.cache }

// Positional reports whether the set carries token positions.
func (s *LazySet) Positional() bool {
	for _, r := range s.readers {
		if r != nil && r.Positional() {
			return true
		}
	}
	return false
}

// Stats aggregates index statistics across the shards from their
// dictionaries alone. Terms is an upper bound, as for Set.Stats.
func (s *LazySet) Stats() index.Stats {
	var agg index.Stats
	for _, r := range s.readers {
		agg.Terms += r.NumTerms()
		agg.Postings += r.NumPostings()
	}
	return agg
}

// Verify decodes and checks every posting block of every shard — the full
// integrity pass lazy open deliberately skips.
func (s *LazySet) Verify() error {
	for i, r := range s.readers {
		if err := r.Verify(); err != nil {
			return fmt.Errorf("shard: segment %s: %w", SegmentName(s.ids[i]), err)
		}
	}
	return nil
}

// Corruptions sums the shards' counts of posting-block reads that failed
// verification.
func (s *LazySet) Corruptions() uint64 {
	var n uint64
	for _, r := range s.readers {
		n += r.Corruptions()
	}
	return n
}

// Close releases every reader's mapping or file handle. Queries must have
// drained first; decoded lists already returned remain valid.
func (s *LazySet) Close() error {
	var first error
	for _, r := range s.readers {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
