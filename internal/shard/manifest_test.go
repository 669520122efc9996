package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
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
	var buf bytes.Buffer
	err = index.EncodeFrame(&buf, index.Version, func(bw *bufio.Writer) error {
		if _, err := bw.Write([]byte{index.KindManifest, 0}); err != nil {
			return err
		}
		if err := index.WriteFileTable(bw, set.Files()); err != nil {
			return err
		}
		if err := index.WriteDocLengths(bw, set.Files()); err != nil {
			return err
		}
		if err := index.WriteUvarint(bw, 2); err != nil {
			return err
		}
		for range 2 {
			if err := index.WriteString(bw, SegmentName(0)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, index.Checksum(seg)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf.Bytes(), 0o644); err != nil {
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
	var buf bytes.Buffer
	err := index.EncodeFrame(&buf, index.Version, func(bw *bufio.Writer) error {
		_, err := bw.Write([]byte{index.KindManifest, 0x4})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseManifest(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("unknown flags: err = %v", err)
	}
}
