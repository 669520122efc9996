package desksearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	stdfnv "hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/segment"
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
// digests were recorded when DSIX v11 replaced the v9 manifest and the v10
// segment: a mismatch means the on-disk format changed, which needs a
// version bump and a docs/FORMAT.md entry, not a new digest.
func TestGoldenFormatBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		dir  string
	}{
		{"plain-1", Options{Shards: 1},
			"c7582efb16f47e5f419143bc1b6cec021432e3fdd3d47ac15b08f641238a745a"},
		{"plain-3", Options{Shards: 3},
			"d70b4fcc836958dc44ab2fe055394a0bf33c23370bc355149735e7ebf6760902"},
		{"positional-1", Options{Shards: 1, Positions: true},
			"abdef213480ef7d456a17db95362326881f83d1b6d6c1cac6e26de07b50f8337"},
		{"positional-3", Options{Shards: 3, Positions: true},
			"c82a75e5b9fe3cf523bc65857caceddc84a9818fc971911961124c931a26c0f7"},
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

// skipIndex builds the index TestGoldenSkipTableBytes pins: 300 files
// whose ID gaps grow from one varint byte to three, holding "all" (300
// postings, two skip entries), "most" (257, two) and "even" (129, one).
// kind is "plain" (every frequency 1), "counted" or "positional".
func skipIndex(kind string) *index.Index {
	bld := index.NewBuilder(kind == "positional")
	for f := 0; f < 300; f++ {
		id := postings.FileID(f*f*150 + f)
		terms := []string{"all"}
		if f < 257 {
			terms = append(terms, "most")
		}
		if f%2 == 0 && f < 258 {
			terms = append(terms, "even")
		}
		switch kind {
		case "plain":
			bld.AddBlock(id, terms, nil)
		case "counted":
			counts := make([]uint32, len(terms))
			for i := range counts {
				counts[i] = uint32(1 + (f+i)%3)
			}
			bld.AddBlock(id, terms, counts)
		case "positional":
			var ends, pos []uint32
			for i := range terms {
				for k := 0; k <= (f+i)%3; k++ {
					pos = append(pos, uint32(f*k*k*70+i))
				}
				ends = append(ends, uint32(len(pos)))
			}
			bld.AddBlockPositional(id, terms, ends, pos)
		}
	}
	return bld.Index()
}

// TestGoldenSkipTableBytes pins the bytes of posting blocks long enough to
// carry skip tables, which the eight-file corpus of TestGoldenFormatBytes
// never reaches. A mismatch means the block layout changed: a version bump
// and a docs/FORMAT.md entry, not a new digest.
func TestGoldenSkipTableBytes(t *testing.T) {
	for _, tc := range []struct{ kind, digest string }{
		{"plain", "70a88a8703699d44c8d2617679e882936209df96608d919eb794e1955f1bfc8a"},
		{"counted", "353bd4c0cc484eae517306665e894f084c461700953391c4e8be54fb9fea40be"},
		{"positional", "53dfd96f4cd871c6df8ec9e06bdb1d4b074fb09951ce554d72cb64cd1840d66f"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			var buf bytes.Buffer
			if err := segment.Write(&buf, skipIndex(tc.kind)); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.digest {
				t.Errorf("segment digest\n%s, want\n%s", got, tc.digest)
			}
		})
	}
}

// dsixFrame hand-writes a correctly checksummed DSIX frame of any version:
// magic, version, payload (kind and flags first) and the CRC-32C trailer.
func dsixFrame(version uint16, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint16([]byte("DSIX"), version)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, index.Checksum(b))
}

// fnv1 is the 64-bit FNV-1 checksum every file of DSIX versions 9 and 10
// carried (hash/fnv's New64 is FNV-1, not FNV-1a).
func fnv1(b []byte) []byte {
	h := stdfnv.New64()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(nil, h.Sum64())
}

// v9Frame hand-writes a frame as version 9 wrote it: magic, version, the
// payload, and a u64 FNV-1 trailer over everything before it.
func v9Frame(payload []byte) []byte {
	b := append([]byte("DSIX\x09\x00"), payload...)
	return append(b, fnv1(b)...)
}

// v10Segment hand-writes the version 10 shard segment of one term in file
// 0: the v11 layout with u64 FNV-1 block and dictionary sums.
func v10Segment() []byte {
	block := append([]byte{0}, postings.FromSortedIDs([]postings.FileID{0}).Encode(nil)...) // no skips
	dict := []byte{1, 0, byte(len(block)), 1, byte(len("quarterly"))}                       // docs {0}, blocksLen, one term
	dict = append(dict, "quarterly"...)
	dict = append(dict, 1, byte(len(block))) // df, blockLen
	dict = append(dict, fnv1(block)...)
	img := append([]byte("DSIX\x0a\x00\x01\x00"), binary.LittleEndian.AppendUint64(nil, uint64(len(dict)))...)
	img = append(img, dict...)
	img = append(img, fnv1(img)...)
	return append(img, block...)
}

// manifestPayload is a manifest frame's kind, flags and payload: files
// and one segment entry whose whole-file checksum is sum.
func manifestPayload(files *index.FileTable, sum []byte) []byte {
	b := []byte{index.KindManifest, 0} // kind, flags
	b = index.AppendFileTable(b, files)
	b = index.AppendDocLengths(b, files)
	b = binary.AppendUvarint(b, 1)
	b = index.AppendString(b, shard.SegmentName(0))
	return append(b, sum...)
}

// TestRetiredVersionsRejected feeds every open path well-formed files of
// the retired DSIX versions — checksums valid, so only the version check
// stands between them and a misparse — a directory exactly as versions 9
// and 10 saved it, whose FNV-1 checksums the live CRC-32C check cannot
// read, and files of a future version or the wrong kind. Each must fail
// naming what it found, never as a checksum mismatch, only the retired
// ones with advice to rebuild; none may return a catalog.
func TestRetiredVersionsRejected(t *testing.T) {
	// Zero files and zero terms: a plausible payload in every old layout.
	empty := []byte{0, 0}
	type input struct {
		name string
		dir  map[string][]byte // fed to LoadDir, OpenDir and OpenDirShards
		want []string          // substrings of every error
	}
	var inputs []input
	for v := uint16(1); v < index.Version; v++ {
		inputs = append(inputs, input{
			name: fmt.Sprintf("v%d", v),
			dir:  map[string][]byte{shard.ManifestName: dsixFrame(v, empty)},
			want: []string{fmt.Sprintf("DSIX version %d,", v), "rebuild the index"},
		})
	}

	// A v7-style segment under a valid manifest that vouches for its bytes.
	files := index.NewFileTable()
	files.Add("a.txt", 1, 1)
	segment := dsixFrame(7, append(index.AppendString([]byte{1}, "quarterly"), // one term, one posting
		postings.FromSortedIDs([]postings.FileID{0}).Encode(nil)...))
	manifestFor := func(segment []byte) []byte {
		return dsixFrame(index.Version, manifestPayload(files, binary.LittleEndian.AppendUint32(nil, index.Checksum(segment))))
	}
	manifest := manifestFor(segment)
	// The directory versions 9 and 10 saved: a v9 manifest with an FNV-1
	// trailer pinning the v10 segment's bytes with FNV-1.
	v10 := v10Segment()
	v9Manifest := v9Frame(manifestPayload(files, fnv1(v10)))
	// What Catalog.Save used to write: a v9 frame of kind 0, here with a
	// payload no reader could parse — it must be refused before that matters.
	singleFile := v9Frame([]byte{0, 1, 0xde, 0xad}) // kind, flags (positional), payload
	inputs = append(inputs,
		input{
			name: "v7-segment",
			dir:  map[string][]byte{shard.ManifestName: manifest, shard.SegmentName(0): segment},
			want: []string{"DSIX version 7,", "rebuild the index"},
		},
		input{
			name: "v9-v10-directory",
			dir:  map[string][]byte{shard.ManifestName: v9Manifest, shard.SegmentName(0): v10},
			want: []string{"DSIX version 9,", "rebuild the index"},
		},
		input{
			name: "v10-segment",
			dir:  map[string][]byte{shard.ManifestName: manifestFor(v10), shard.SegmentName(0): v10},
			want: []string{"DSIX version 10,", "rebuild the index"},
		},
		input{
			name: "v12",
			dir:  map[string][]byte{shard.ManifestName: dsixFrame(12, empty)},
			want: []string{"DSIX version 12,", "newer than this build"},
		},
		input{
			name: "frame-as-segment",
			dir:  map[string][]byte{shard.ManifestName: manifestFor(manifest), shard.SegmentName(0): manifest},
			want: []string{"DSIX kind 2 (a manifest), want kind 1 (a shard segment)"},
		},
		input{
			name: "index-as-manifest",
			dir:  map[string][]byte{shard.ManifestName: singleFile},
			want: []string{"DSIX version 9,", "rebuild the index"},
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
				if strings.Contains(err.Error(), "checksum") {
					t.Errorf("%s error %q blames a checksum, not the version or kind", opener, err)
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
