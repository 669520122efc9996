package shard

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"desksearch/internal/fanout"
	"desksearch/internal/index"
	"desksearch/internal/segment"
)

// The sharded on-disk layout: one directory holding
//
//	manifest.dsix   DSIX version 11 kind 2 frame — file table + segment directory
//	shard-0000.dsix DSIX version 11 kind 1 (lazy segment; internal/segment)
//	shard-0001.dsix ...
//
// The manifest is a DSIX frame whose header has kind 2 and flags 0 and
// whose payload is
//
//	file table (shared by all shards)
//	doc-length section (the token lengths BM25 needs, once per set)
//	uvarint shardCount
//	shardCount × (uvarint nameLen | segment file name | u32 checksum
//	              of the segment file's entire contents)
//
// Every file carries its own checksums (the manifest a trailer, a segment
// its dictionary and per-block sums), all index.Checksum's CRC-32C; the
// manifest's per-segment checksums additionally pin the exact segment
// bytes, so a segment that was swapped with another (internally valid)
// one, regenerated, or truncated is rejected before its postings are
// trusted. Segments are written, loaded and opened concurrently, through
// fanout.Run.
// The manifest is built and read with internal/index's codec: its
// appenders and SealFrame, and the Cursor OpenFrame returns.

// ManifestName is the manifest's file name inside a sharded index directory.
const ManifestName = "manifest.dsix"

// MaxShards is the most segments one index directory may hold. A manifest
// claiming more is refused as corrupt, so SaveDir refuses to write one and
// core.Config.Validate refuses to build one.
const MaxShards = 1 << 16

// SegmentName returns the file name of shard i's segment.
func SegmentName(i int) string { return fmt.Sprintf("shard-%04d.dsix", i) }

// SaveDir writes s under dir as a manifest plus one segment file per shard.
// Segments are written concurrently (fanout.Run), each hashing
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
//
// A set of more than MaxShards partitions is refused before anything is
// written: LoadDir could not read it back.
func SaveDir(dir string, s *Set) error {
	if s.Len() > MaxShards {
		return fmt.Errorf("shard: %d partitions is above the limit of %d segments per directory", s.Len(), MaxShards)
	}
	dir = filepath.Clean(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	const stage = ".tmp"
	sums := make([]uint32, s.Len())
	clean := s.cleanSums(dir)
	err := fanout.Run(s.Len(), func(i int) error {
		if clean[i] != nil {
			sums[i] = *clean[i]
			return nil
		}
		sum, err := saveSegmentFile(filepath.Join(dir, SegmentName(i)+stage), s.shards[i])
		if err != nil {
			return fmt.Errorf("shard: segment %d: %w", i, err)
		}
		sums[i] = sum
		return nil
	})
	if err != nil {
		return err
	}
	if err := saveManifest(filepath.Join(dir, ManifestName+stage), s, sums); err != nil {
		return err
	}
	for i := 0; i < s.Len(); i++ {
		if clean[i] != nil {
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

// removeStaleSegments deletes every segment file the new manifest of n
// segments does not name — a previous save with more shards left them
// behind, and nothing would otherwise ever remove them — along with
// staging leftovers of a crashed earlier save. It lists dir once and
// matches base names only, so a directory path that reads as a glob
// pattern ("idx[1]") changes nothing. Listing and removal failures are
// ignored — stale files are dead weight, not a correctness hazard.
func removeStaleSegments(dir string, n int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	named := make(map[string]bool, n)
	for i := range n {
		named[SegmentName(i)] = true
	}
	for _, e := range entries {
		name := e.Name()
		leftover := strings.HasSuffix(name, ".dsix.tmp")
		stale := strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".dsix") && !named[name]
		if leftover || stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// saveSegmentFile writes one segment and returns the checksum of the
// complete file contents.
func saveSegmentFile(path string, ix *index.Index) (uint32, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	h := index.NewChecksum()
	if err := segment.Write(io.MultiWriter(f, h), ix); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// saveManifest builds the manifest frame in memory and writes it to path
// once.
func saveManifest(path string, s *Set, sums []uint32) error {
	b := index.AppendHeader(nil, index.KindManifest, 0)
	b = index.AppendFileTable(b, s.files)
	b = index.AppendDocLengths(b, s.files)
	b = binary.AppendUvarint(b, uint64(s.Len()))
	for i := range s.shards {
		b = index.AppendString(b, SegmentName(i))
		b = binary.LittleEndian.AppendUint32(b, sums[i])
	}
	if err := os.WriteFile(path, index.SealFrame(b), 0o666); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	return nil
}

// manifest is the decoded segment directory.
type manifest struct {
	files *index.FileTable
	names []string
	sums  []uint32
}

func parseManifest(data []byte) (*manifest, error) {
	c, flags, err := index.OpenFrame(data, index.KindManifest)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if flags != 0 {
		return nil, fmt.Errorf("shard: manifest: unknown flags %#x", flags)
	}
	files, err := index.ReadFileTable(c)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if err := index.ReadDocLengths(c, files); err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	shardCount := c.Count("shard", 1+1+4) // an entry: a name of a byte or more, behind its length, and a u32 sum
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("shard: manifest: reading shard count: %w", err)
	}
	if shardCount == 0 || shardCount > MaxShards {
		return nil, fmt.Errorf("shard: manifest: absurd shard count %d", shardCount)
	}
	m := &manifest{
		files: files,
		names: make([]string, shardCount),
		sums:  make([]uint32, shardCount),
	}
	seen := make(map[string]bool, shardCount)
	for i := range m.names {
		name := c.Str()
		m.sums[i] = c.U32()
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("shard: manifest: segment %d: %w", i, err)
		}
		// Segment names are opaque manifest data; refuse anything that
		// would escape the index directory, and a segment named twice:
		// readers assume the segments are document-disjoint, and one
		// listed twice would serve its documents twice.
		if name == "" || name != filepath.Base(name) {
			return nil, fmt.Errorf("shard: manifest: invalid segment name %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: manifest: segment %q listed twice", name)
		}
		seen[name] = true
		m.names[i] = name
	}
	if c.Left() != 0 {
		return nil, fmt.Errorf("shard: manifest: %d trailing payload bytes", c.Left())
	}
	return m, nil
}

// LoadDir reads a sharded index directory written by SaveDir: the manifest
// first (checksum-verified before anything in it is trusted), then every
// segment concurrently (fanout.Run), each segment checked
// against the manifest's whole-file checksum and then fully decoded,
// which checks its dictionary and every posting block. A failure names
// the failing segment of the lowest shard number.
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
	err = fanout.Run(len(m.names), func(i int) error {
		ix, err := loadSegmentFile(filepath.Join(dir, m.names[i]), m.sums[i], i, len(m.names), m.files.Len())
		if err != nil {
			return fmt.Errorf("shard: segment %s: %w", m.names[i], err)
		}
		shards[i] = ix
		return nil
	})
	if err != nil {
		return nil, err
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

// loadSegmentFile eagerly loads segment i of n: the file is opened in
// place over the already-read bytes and fully materialized — the eager
// path through the lazy format. Like OpenDir it admits the segment first,
// before the index sizes its document set by the largest file.
func loadSegmentFile(path string, wantSum uint32, i, n, files int) (*index.Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got := index.Checksum(data); got != wantSum {
		return nil, fmt.Errorf("file checksum mismatch: manifest %#x, computed %#x", wantSum, got)
	}
	r, err := segment.OpenBytes(path, data, nil)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := admit(r, i, n, files); err != nil {
		return nil, err
	}
	return r.Materialize()
}

// admit holds segment i of a directory of n to the two rules every reader
// relies on, over the segment's persisted document set (O(documents), no
// posting byte): each file it holds is inside the manifest's table of
// files, and ShardFor routes each to shard i. The first catches a segment
// saved after its manifest, which OpenDir's unverified segment checksums
// would let through to panic the first query that resolves the file's
// path; the second, a directory whose segments split the files by some
// other rule, where an update would miss a file's postings at its owner.
func admit(r *segment.Reader, i, n, files int) error {
	for _, id := range r.Docs().IDs() {
		if int(id) >= files {
			return fmt.Errorf("file ID %d is past the manifest's file table (%d files)", id, files)
		}
		if owner := ShardFor(id, n); owner != i {
			return fmt.Errorf("file ID %d routes to shard %d of %d, not to this segment's shard %d; rebuild the index", id, owner, n, i)
		}
	}
	return nil
}
