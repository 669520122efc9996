package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"desksearch/internal/fanout"
	"desksearch/internal/index"
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
// global shard number, which the query engine needs to know which reader
// answers NOT queries for the directory's term-free files.
type LazySet struct {
	files   *index.FileTable
	readers []*segment.Reader
	cache   *segment.Cache
	// ids[i] is the global shard number of readers[i]; total is the
	// directory's full shard count. For a whole-directory open ids is the
	// identity and total == len(readers).
	ids   []int
	total int
}

// OpenDir opens a sharded index directory lazily: the manifest is read and
// verified in full (it is small — the file table and segment names), but
// each segment contributes only its term dictionary; posting blocks stay
// on disk, mmap'd where the platform allows, decoded per term on demand
// into a cache bounded by cacheBytes (non-positive means
// segment.DefaultCacheBytes, shared across all shards). The segments are
// opened concurrently (fanout.Run), so the dictionary walks are
// split over the cores: open time is the manifest parse plus the slowest
// segment's walk where there are as many cores as segments, and a
// one-segment directory opens no faster than one walk.
//
// Unlike LoadDir, the manifest's whole-file segment checksums are NOT
// verified — doing so would read every posting byte and make open
// O(postings) again. Integrity instead comes from the segment layout
// itself: the dictionary region is checksum-verified at open, and every
// posting block is checked against its dictionary checksum on every read
// the cache does not serve. What ties a segment to the manifest is one
// O(documents) check per segment over its persisted doc-ID set: a segment
// holding a FileID past the manifest's file table — a segment saved after
// its manifest — or a FileID that ShardFor routes to another shard is
// refused at open, naming the segment and the ID.
func OpenDir(dir string, cacheBytes int64) (*LazySet, error) {
	return OpenDirShards(dir, cacheBytes, nil)
}

// OpenDirShards is OpenDir restricted to a subset of the directory's
// shards — the distributed worker's open path: only the named segments'
// dictionaries are read and mapped, so a worker's startup cost and
// footprint track its share of the corpus, not the whole directory.
// shardIDs lists global shard numbers (duplicates collapse, order does not
// matter); nil or empty opens every shard, identically to OpenDir. Each
// named segment is opened and admitted concurrently (fanout.Run) — held to
// ShardFor against the directory's full shard count, so a subset serves
// exactly the files routed to its shards. When any segment fails, every
// reader already opened is closed and the error names the failing segment
// of the lowest shard number, however the opens finished.
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
	err = fanout.Run(len(ids), func(i int) error {
		name := m.names[ids[i]]
		r, err := segment.Open(filepath.Join(dir, name), cache)
		if err == nil {
			s.readers[i] = r
			err = admit(r, ids[i], total, m.files.Len())
		}
		if err != nil {
			return fmt.Errorf("shard: segment %s: %w", name, err)
		}
		return nil
	})
	if err != nil {
		s.Close()
		return nil, err
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

// ShardIDs returns the global shard numbers of the set's readers, in
// reader order (ascending). Callers must not modify the slice.
func (s *LazySet) ShardIDs() []int { return s.ids }

// TotalShards returns the directory's full shard count, regardless of how
// many shards this set opened.
func (s *LazySet) TotalShards() int { return s.total }

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
