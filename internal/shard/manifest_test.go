package shard

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

func manifestVersion(t *testing.T, dir string) uint16 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 6 {
		t.Fatalf("manifest too short: %d bytes", len(data))
	}
	return binary.LittleEndian.Uint16(data[4:6])
}

// TestManifestCarriesDocLengths: a fresh corpus (whose file table carries
// token lengths) persists a v11 manifest, and LoadDir restores every
// per-file length.
func TestManifestCarriesDocLengths(t *testing.T) {
	files, ix, blocks := buildCorpus(t)
	for i := range blocks {
		files.SetTokens(postings.FileID(i), uint32(5+2*i))
	}
	set := Distribute(files, []*index.Index{ix}, 4)

	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatal(err)
	}
	if v := manifestVersion(t, dir); v != index.Version {
		t.Fatalf("manifest version = %d, want %d", v, index.Version)
	}

	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		fid := postings.FileID(i)
		if got, want := loaded.Files().Tokens(fid), files.Tokens(fid); got != want {
			t.Errorf("file %d: tokens = %d, want %d", i, got, want)
		}
	}
}

// TestManifestDuplicateSegmentRejected: a manifest with a valid checksum
// that lists one segment file twice — with that file's true checksum both
// times — would serve the segment's documents twice and lose the other
// segment's; LoadDir and OpenDir refuse it.
func TestManifestDuplicateSegmentRejected(t *testing.T) {
	set, _ := buildSet(t, 2)
	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, SegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	b := index.AppendHeader(nil, index.KindManifest, 0)
	b = index.AppendFileTable(b, set.Files())
	b = index.AppendDocLengths(b, set.Files())
	b = binary.AppendUvarint(b, 2)
	for range 2 {
		b = index.AppendString(b, SegmentName(0))
		b = binary.LittleEndian.AppendUint32(b, index.Checksum(seg))
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), index.SealFrame(b), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("LoadDir = %v, want a segment listed twice", err)
	}
	if _, err := OpenDir(dir, 0); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("OpenDir = %v, want a segment listed twice", err)
	}
}

// TestManifestUnknownFlagsRejected: a manifest has no posting lists, so its
// flags byte must be zero; a checksummed frame with any bit set is refused.
func TestManifestUnknownFlagsRejected(t *testing.T) {
	frame := index.SealFrame(index.AppendHeader(nil, index.KindManifest, 0x4))
	if _, err := parseManifest(frame); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("unknown flags: err = %v", err)
	}
}

// FuzzManifestOpen feeds arbitrary payload bytes behind a valid header and
// a recomputed trailer — a manifest whose checksum someone recomputed —
// through parseManifest. It may not panic or allocate out of proportion to
// the input: every count it sizes an allocation by is one the payload's
// own bytes must back. The second seed is a 17-byte manifest claiming
// 65 536 segments.
func FuzzManifestOpen(f *testing.F) {
	set, _ := buildSet(f, 3)
	dir := f.TempDir()
	if err := SaveDir(dir, set); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved[index.HeaderLen : len(saved)-4])
	f.Add([]byte{0, 0, 0x80, 0x80, 0x04}) // no files, no lengths, 65 536 segments

	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := index.SealFrame(append(index.AppendHeader(nil, index.KindManifest, 0), payload...))
		allocLimit(t, uint64(64*len(frame)+1<<16), func() { parseManifest(frame) })
	})
}

// allocatedBytes reads the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocLimit fails t when run, repeated up to five times, never stays
// within limit bytes of heap allocation. The count is the whole process's,
// and the fuzzing engine allocates beside us now and then: an overrun that
// is ours repeats.
func allocLimit(t *testing.T, limit uint64, run func()) {
	t.Helper()
	for try := 1; ; try++ {
		before := allocatedBytes()
		run()
		grown := allocatedBytes() - before
		if grown <= limit {
			return
		}
		if try == 5 {
			t.Fatalf("allocated %d bytes, limit %d", grown, limit)
		}
	}
}
