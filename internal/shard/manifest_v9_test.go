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
// token lengths) persists a v9 manifest, and LoadDir restores every
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
	if v := manifestVersion(t, dir); v != index.FrameVersion {
		t.Fatalf("manifest version = %d, want %d", v, index.FrameVersion)
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

// TestManifestUnknownFlagsRejected: a manifest has no posting lists, so its
// flags byte must be zero; a checksummed frame with any bit set is refused.
func TestManifestUnknownFlagsRejected(t *testing.T) {
	var buf bytes.Buffer
	err := index.EncodeFrame(&buf, index.FrameVersion, func(bw *bufio.Writer) error {
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
