package desksearch

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"desksearch/internal/fnv"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
	"desksearch/internal/vfs"
)

// goldenCatalog builds the fixed corpus the format-stability test pins:
// eight tiny files, then one rewrite and one deletion applied through
// Update, so the saved bytes cover tombstones, modification stamps, doc
// lengths and (when positional) position runs.
func goldenCatalog(t *testing.T, opt Options) *Catalog {
	t.Helper()
	fs := vfs.NewMemFS()
	for i, text := range []string{
		"quarterly report draft for the annual review",
		"annual report final",
		"milk flour pancake milk allergy",
		"parallel index generator for desktop search",
		"search index search thread",
		"budget forecast revenue budget",
		"draft draft draft",
		"the annual report of the parallel thread",
	} {
		name := fmt.Sprintf("dir%d/file%d.txt", i%3, i)
		if err := fs.WriteFile(name, []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := IndexFS(fs, ".", opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("dir0/file3.txt", []byte("sequential index generator")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("dir2/file5.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Update(fs, "."); err != nil {
		t.Fatal(err)
	}
	return cat
}

// dirDigest hashes every file SaveDir left under dir: names in sorted
// order, each followed by its length and bytes.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenFormatBytes pins every byte a fresh build persists. The
// digests were recorded at the commit before the retired DSIX versions
// were deleted (PR 12): a mismatch means the on-disk format changed, which
// needs a version bump and a docs/FORMAT.md entry, not a new digest.
func TestGoldenFormatBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		dir  string
	}{
		{"plain-1", Options{Shards: 1},
			"d3ce6dbe47cd7d3d32d18a87f57002cae2c6d63db05d3dd34dd562f3b8c9e0ce"},
		{"plain-3", Options{Shards: 3},
			"5bf04b3723d9c03862d1ff210bf964d6566b1697f29b1ea1f1195ef47f54aecc"},
		{"positional-1", Options{Shards: 1, Positions: true},
			"a0e3dbcb621aec4629b3c76c78b8014bd6221d4d3dcc5a818aecfff1a1005be4"},
		{"positional-3", Options{Shards: 3, Positions: true},
			"03f04de9bed7afd3454766661605dc9e7c128e607c220dbbe6bf8e06333e0786"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := goldenCatalog(t, tc.opt)
			dir := t.TempDir()
			if err := cat.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			if got := dirDigest(t, dir); got != tc.dir {
				t.Errorf("SaveDir digest\n%s, want\n%s", got, tc.dir)
			}
		})
	}
}

// dsixFrame hand-writes a correctly checksummed DSIX frame of any version.
func dsixFrame(t *testing.T, version uint16, body func(*bufio.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.EncodeFrame(&buf, version, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeManifestBody writes a manifest frame's kind, flags and payload: files
// and one segment entry vouching for segment's bytes.
func writeManifestBody(bw *bufio.Writer, files *index.FileTable, segment []byte) error {
	if _, err := bw.Write([]byte{index.KindManifest, 0}); err != nil { // kind, flags
		return err
	}
	if err := index.WriteFileTable(bw, files); err != nil {
		return err
	}
	if err := index.WriteDocLengths(bw, files); err != nil {
		return err
	}
	if err := index.WriteUvarint(bw, 1); err != nil {
		return err
	}
	if err := index.WriteString(bw, shard.SegmentName(0)); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, fnv.Hash64Bytes(segment))
}

// TestRetiredVersionsRejected feeds every open path well-formed files of
// the retired DSIX versions — checksums valid, so only the version check
// stands between them and a misparse — and frames of a future version or
// the wrong kind, the retired single-file index (v9 kind 0) among them.
// Each must fail naming what it found, only the retired ones with advice
// to rebuild; none may return a catalog.
func TestRetiredVersionsRejected(t *testing.T) {
	// Zero files and zero terms: a plausible payload in every old layout.
	empty := func(bw *bufio.Writer) error {
		_, err := bw.Write([]byte{0, 0})
		return err
	}
	type input struct {
		name string
		dir  map[string][]byte // fed to LoadDir, OpenDir and OpenDirShards
		want []string          // substrings of every error
	}
	var inputs []input
	for v := uint16(1); v < index.FrameVersion; v++ {
		inputs = append(inputs, input{
			name: fmt.Sprintf("v%d", v),
			dir:  map[string][]byte{shard.ManifestName: dsixFrame(t, v, empty)},
			want: []string{fmt.Sprintf("DSIX version %d,", v), "rebuild the index"},
		})
	}

	// A v7-style segment under a valid manifest that vouches for its bytes.
	files := index.NewFileTable()
	files.Add("a.txt", 1, 1)
	segment := dsixFrame(t, 7, func(bw *bufio.Writer) error { // one term, one posting
		if err := index.WriteUvarint(bw, 1); err != nil {
			return err
		}
		if err := index.WriteString(bw, "quarterly"); err != nil {
			return err
		}
		_, err := bw.Write(postings.FromSortedIDs([]postings.FileID{0}).Encode(nil))
		return err
	})
	manifestFor := func(segment []byte) []byte {
		return dsixFrame(t, index.FrameVersion, func(bw *bufio.Writer) error {
			return writeManifestBody(bw, files, segment)
		})
	}
	manifest := manifestFor(segment)
	// What Catalog.Save used to write: a v9 frame of kind 0, here with a
	// payload no reader could parse — it must be refused before that matters.
	singleFile := dsixFrame(t, index.FrameVersion, func(bw *bufio.Writer) error {
		_, err := bw.Write([]byte{0, 1, 0xde, 0xad}) // kind, flags (positional), payload
		return err
	})
	inputs = append(inputs,
		input{
			name: "v7-segment",
			dir:  map[string][]byte{shard.ManifestName: manifest, shard.SegmentName(0): segment},
			want: []string{"DSIX version 7,", "rebuild the index"},
		},
		input{
			name: "v11",
			dir:  map[string][]byte{shard.ManifestName: dsixFrame(t, 11, empty)},
			want: []string{"DSIX version 11,", "newer than this build"},
		},
		input{
			name: "frame-as-segment",
			dir:  map[string][]byte{shard.ManifestName: manifestFor(manifest), shard.SegmentName(0): manifest},
			want: []string{"DSIX version 9 is a manifest"},
		},
		input{
			name: "index-as-manifest",
			dir:  map[string][]byte{shard.ManifestName: singleFile},
			want: []string{"DSIX version 9 frame kind 0", "rebuild the index"},
		},
	)

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			check := func(opener string, cat *Catalog, err error) {
				t.Helper()
				if cat != nil || err == nil {
					t.Fatalf("%s returned (%v, %v), want an error and no catalog", opener, cat, err)
				}
				for _, want := range in.want {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s error %q does not contain %q", opener, err, want)
					}
				}
				const advice = "rebuild the index"
				if strings.Contains(err.Error(), advice) && !slices.Contains(in.want, advice) {
					t.Errorf("%s error %q advises a rebuild that would not help", opener, err)
				}
			}
			dir := t.TempDir()
			for name, data := range in.dir {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cat, err := LoadDir(dir)
			check("LoadDir", cat, err)
			cat, err = OpenDir(dir)
			check("OpenDir", cat, err)
			cat, err = OpenDirShards(dir, []int{0})
			check("OpenDirShards", cat, err)
		})
	}
}
