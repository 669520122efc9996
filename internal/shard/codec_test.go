package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desksearch/internal/index"
)

func buildSet(t *testing.T, n int) (*Set, *index.Index) {
	t.Helper()
	files, ix, _ := buildCorpus(t)
	return Distribute(files, []*index.Index{ix}, n), ix
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		set, _ := buildSet(t, n)
		dir := t.TempDir()
		if err := SaveDir(dir, set); err != nil {
			t.Fatalf("n=%d: SaveDir: %v", n, err)
		}
		loaded, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("n=%d: LoadDir: %v", n, err)
		}
		if loaded.Len() != n {
			t.Fatalf("n=%d: loaded %d shards", n, loaded.Len())
		}
		if loaded.Files().Len() != set.Files().Len() {
			t.Fatalf("n=%d: file table %d files, want %d", n, loaded.Files().Len(), set.Files().Len())
		}
		for id := 0; id < set.Files().Len(); id++ {
			fid := set.Files().Paths()[id]
			if loaded.Files().Paths()[id] != fid {
				t.Errorf("n=%d: file %d path %q != %q", n, id, loaded.Files().Paths()[id], fid)
			}
		}
		for i := range set.Shards() {
			if !loaded.Shards()[i].Equal(set.Shards()[i]) {
				t.Errorf("n=%d: shard %d differs after round trip", n, i)
			}
		}
	}
}

// savedDir returns a valid saved 4-shard layout for corruption tests.
func savedDir(t *testing.T) string {
	t.Helper()
	set, _ := buildSet(t, 4)
	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatal(err)
	}
	return dir
}

func corruptFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDirRejectsTruncatedSegment(t *testing.T) {
	dir := savedDir(t)
	corruptFile(t, filepath.Join(dir, SegmentName(2)), func(b []byte) []byte {
		return b[:len(b)/2]
	})
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("truncated segment accepted")
	}
}

func TestLoadDirRejectsCorruptSegment(t *testing.T) {
	dir := savedDir(t)
	corruptFile(t, filepath.Join(dir, SegmentName(1)), func(b []byte) []byte {
		b[len(b)/2] ^= 0xff
		return b
	})
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("corrupt segment accepted")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("want checksum error, got: %v", err)
	}
}

func TestLoadDirRejectsSwappedSegments(t *testing.T) {
	// Two internally-valid segments exchanged on disk: each file's own
	// trailer still verifies, so only the manifest's per-file checksums
	// can catch the swap.
	dir := savedDir(t)
	a, b := filepath.Join(dir, SegmentName(0)), filepath.Join(dir, SegmentName(3))
	tmp := filepath.Join(dir, "tmp")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("swapped segments accepted")
	}
}

func TestLoadDirRejectsMissingSegment(t *testing.T) {
	dir := savedDir(t)
	if err := os.Remove(filepath.Join(dir, SegmentName(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("missing segment accepted")
	}
}

func TestLoadDirRejectsCorruptManifest(t *testing.T) {
	dir := savedDir(t)
	corruptFile(t, filepath.Join(dir, ManifestName), func(b []byte) []byte {
		b[len(b)/3] ^= 0x01
		return b
	})
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestLoadDirRejectsGarbageManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("garbage manifest accepted")
	}
}

func TestLoadDirRejectsMissingManifest(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestLoadRejectsSegmentFile(t *testing.T) {
	// Feeding a segment to the frame reader must fail with a version
	// complaint, not decode garbage.
	data, err := os.ReadFile(filepath.Join(savedDir(t), SegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseManifest(data); err == nil || !strings.Contains(err.Error(), "segment") {
		t.Errorf("parseManifest(segment) = %v, want segment version error", err)
	}
}

func TestSaveDirRemovesStaleSegments(t *testing.T) {
	dir := t.TempDir()
	four, _ := buildSet(t, 4)
	if err := SaveDir(dir, four); err != nil {
		t.Fatal(err)
	}
	two, _ := buildSet(t, 2)
	if err := SaveDir(dir, two); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, SegmentName(i))); !os.IsNotExist(err) {
			t.Errorf("stale %s survived re-save", SegmentName(i))
		}
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Errorf("loaded %d shards, want 2", loaded.Len())
	}
}
