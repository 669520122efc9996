package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"desksearch/internal/fnv"
	"desksearch/internal/index"
	"desksearch/internal/segment"
)

// The sharded on-disk layout: one directory holding
//
//	manifest.dsix   DSIX version 9 frame — file table + segment directory
//	shard-0000.dsix DSIX version 10 (lazy segment; internal/segment)
//	shard-0001.dsix ...
//
// The manifest payload, inside the standard DSIX frame, is
//
//	u8 kind (manifest) | u8 flags
//	file table (shared by all shards)
//	doc-length section (the token lengths BM25 needs, once per set)
//	uvarint shardCount
//	shardCount × (uvarint nameLen | segment file name | u64 FNV-1 checksum
//	              of the segment file's entire contents)
//
// Every file carries its own checksums (the manifest a trailer, a segment
// its dictionary and per-block sums); the manifest's per-segment checksums
// additionally pin the exact segment bytes, so a segment that was
// swapped with another (internally valid) one, regenerated, or truncated is
// rejected before its postings are trusted. Segments are written and read
// with one goroutine per shard.

// ManifestName is the manifest's file name inside a sharded index directory.
const ManifestName = "manifest.dsix"

// maxShards bounds the shard count against corrupt manifests.
const maxShards = 1 << 16

// SegmentName returns the file name of shard i's segment.
func SegmentName(i int) string { return fmt.Sprintf("shard-%04d.dsix", i) }

// SaveDir writes s under dir as a manifest plus one segment file per shard.
// Segments are written concurrently, one goroutine per shard, each hashing
// its own file as it streams out. All files are staged under temporary
// names and renamed into place only after every write has succeeded —
// segments first, manifest last — so a crash during the data writes leaves
// any pre-existing index untouched, and a crash during the renames is
// caught at load time by the manifest's per-segment checksums rather than
// serving mixed data.
//
// A set previously loaded from or saved to the same directory rewrites
// only its dirty segments: clean segments keep their on-disk files, whose
// recorded checksums are carried into the fresh manifest unchanged. The
// manifest itself — file table plus segment directory — is always
// rewritten. That is the incremental-update fast path: a small changeset
// dirties few shards, so most segment bytes are never touched.
func SaveDir(dir string, s *Set) error {
	dir = filepath.Clean(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	const stage = ".tmp"
	sums := make([]uint64, s.Len())
	written := make([]bool, s.Len())
	errs := make([]error, s.Len())
	clean := s.cleanSums(dir)
	var wg sync.WaitGroup
	for i, ix := range s.shards {
		if clean[i] != nil {
			sums[i] = *clean[i]
			continue
		}
		written[i] = true
		wg.Add(1)
		go func(i int, ix *index.Index) {
			defer wg.Done()
			sums[i], errs[i] = saveSegmentFile(filepath.Join(dir, SegmentName(i)+stage), ix)
		}(i, ix)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: segment %d: %w", i, err)
		}
	}
	if err := saveManifest(filepath.Join(dir, ManifestName+stage), s, sums); err != nil {
		return err
	}
	for i := 0; i < s.Len(); i++ {
		if !written[i] {
			continue
		}
		name := filepath.Join(dir, SegmentName(i))
		if err := os.Rename(name+stage, name); err != nil {
			return fmt.Errorf("shard: segment %d: %w", i, err)
		}
	}
	name := filepath.Join(dir, ManifestName)
	if err := os.Rename(name+stage, name); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	removeStaleSegments(dir, s.Len())
	s.markSaved(dir, sums)
	return nil
}

// removeStaleSegments deletes segment files a previous save with more
// shards left behind — the new manifest no longer references them, so they
// would otherwise linger on disk forever — along with staging leftovers of
// a crashed earlier save. Removal failures are ignored — stale files are
// dead weight, not a correctness hazard.
func removeStaleSegments(dir string, n int) {
	if leftovers, err := filepath.Glob(filepath.Join(dir, "*.dsix.tmp")); err == nil {
		for _, path := range leftovers {
			os.Remove(path)
		}
	}
	stale, err := filepath.Glob(filepath.Join(dir, "shard-*.dsix"))
	if err != nil {
		return
	}
	for _, path := range stale {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(path), "shard-%04d.dsix", &i); err == nil && i >= n {
			os.Remove(path)
		}
	}
}

// saveSegmentFile writes one segment and returns the FNV-1 checksum of the
// complete file contents.
func saveSegmentFile(path string, ix *index.Index) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	h := fnv.New64()
	if err := segment.Write(io.MultiWriter(f, h), ix); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

func saveManifest(path string, s *Set, sums []uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	err = index.EncodeFrame(f, index.FrameVersion, func(bw *bufio.Writer) error {
		if _, err := bw.Write([]byte{index.KindManifest, 0}); err != nil { // kind, flags
			return err
		}
		if err := index.WriteFileTable(bw, s.files); err != nil {
			return err
		}
		if err := index.WriteDocLengths(bw, s.files); err != nil {
			return err
		}
		if err := index.WriteUvarint(bw, uint64(s.Len())); err != nil {
			return err
		}
		var b [8]byte
		for i := range s.shards {
			if err := index.WriteString(bw, SegmentName(i)); err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(b[:], sums[i])
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("shard: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	return nil
}

// manifest is the decoded segment directory.
type manifest struct {
	files *index.FileTable
	names []string
	sums  []uint64
}

func parseManifest(data []byte) (*manifest, error) {
	br, _, flags, err := index.DecodeFrame(data, index.KindManifest)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if flags != 0 {
		return nil, fmt.Errorf("shard: manifest: unknown flags %#x", flags)
	}
	files, err := index.ReadFileTable(br)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if err := index.ReadDocLengths(br, files); err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	shardCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: reading shard count: %w", err)
	}
	if shardCount == 0 || shardCount > maxShards {
		return nil, fmt.Errorf("shard: manifest: absurd shard count %d", shardCount)
	}
	m := &manifest{
		files: files,
		names: make([]string, shardCount),
		sums:  make([]uint64, shardCount),
	}
	sumBuf := make([]byte, 8)
	for i := range m.names {
		name, err := index.ReadString(br)
		if err != nil {
			return nil, fmt.Errorf("shard: manifest: segment %d name: %w", i, err)
		}
		// Segment names are opaque manifest data; refuse anything that
		// would escape the index directory.
		if name == "" || name != filepath.Base(name) {
			return nil, fmt.Errorf("shard: manifest: invalid segment name %q", name)
		}
		m.names[i] = name
		if _, err := io.ReadFull(br, sumBuf); err != nil {
			return nil, fmt.Errorf("shard: manifest: segment %d checksum: %w", i, err)
		}
		m.sums[i] = binary.LittleEndian.Uint64(sumBuf)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("shard: manifest: %d trailing payload bytes", br.Len())
	}
	return m, nil
}

// LoadDir reads a sharded index directory written by SaveDir: the manifest
// first (checksum-verified before anything in it is trusted), then every
// segment concurrently, one goroutine per shard, each segment checked
// against the manifest's whole-file checksum and then fully decoded,
// which checks its dictionary and every posting block.
func LoadDir(dir string) (*Set, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	shards := make([]*index.Index, len(m.names))
	errs := make([]error, len(m.names))
	var wg sync.WaitGroup
	for i, name := range m.names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			shards[i], errs[i] = loadSegmentFile(filepath.Join(dir, name), m.sums[i])
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: segment %s: %w", m.names[i], err)
		}
	}
	set := New(m.files, shards)
	// Remember where the segments live and their checksums, so a later
	// SaveDir back into the same directory rewrites only dirty ones. Only
	// canonically named segments qualify: SaveDir writes SegmentName(i),
	// so a manifest with foreign names cannot vouch for those files.
	canonical := true
	for i, name := range m.names {
		if name != SegmentName(i) {
			canonical = false
			break
		}
	}
	if canonical {
		set.markSaved(filepath.Clean(dir), m.sums)
	}
	return set, nil
}

// loadSegmentFile eagerly loads one segment: the file is opened in place
// over the already-read bytes and fully materialized — the eager path
// through the lazy format.
func loadSegmentFile(path string, wantSum uint64) (*index.Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got := fnv.Hash64Bytes(data); got != wantSum {
		return nil, fmt.Errorf("file checksum mismatch: manifest %#x, computed %#x", wantSum, got)
	}
	r, err := segment.OpenBytes(path, data, nil)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Materialize()
}
