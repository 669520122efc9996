package corpus

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"desksearch/internal/vfs"
)

// TestPinnedContent pins the bytes of the corpus the benchmark builds
// (PaperSpec at 1/64): every path and its content, in path order, under
// one FNV-64a digest. A generator change that moves a word fails here
// rather than surfacing as a shift in a benchmark metric.
func TestPinnedContent(t *testing.T) {
	mem := vfs.NewMemFS()
	st, err := Generate(PaperSpec().Scale(1.0/64), mem)
	if err != nil {
		t.Fatal(err)
	}
	files := slices.Clone(st.Files)
	slices.SortFunc(files, func(a, b FileStat) int { return strings.Compare(a.Path, b.Path) })
	h := fnv.New64a()
	var n [8]byte
	var total int64
	for _, f := range files {
		data, err := mem.ReadFile(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(f.Path))
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
		total += int64(len(data))
	}
	const (
		wantFiles  = 796
		wantBytes  = 14_240_303
		wantDigest = 0x8ef07d8801483e3e
	)
	if len(files) != wantFiles || total != wantBytes || h.Sum64() != wantDigest {
		t.Fatalf("corpus = %d files, %d B, digest %#016x; pinned %d files, %d B, digest %#016x",
			len(files), total, h.Sum64(), wantFiles, wantBytes, uint64(wantDigest))
	}
}
