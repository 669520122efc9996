package index

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"desksearch/internal/postings"
)

// buildFileTable is a fresh build's file table: paths, sizes, modification
// stamps and a token length per file.
func buildFileTable(nFiles int) *FileTable {
	ft := NewFileTable()
	for f := 0; f < nFiles; f++ {
		id := ft.Add(fmt.Sprintf("dir%d/file%d.txt", f%4, f), int64(100+f), int64(f+1))
		ft.SetTokens(id, uint32(10+f*3))
	}
	return ft
}

// saveTables writes ft as the head of a manifest frame — kind, zero flags,
// file table, doc-length section — which is every payload section this
// package still encodes (internal/shard appends the segment directory, and
// posting lists live in internal/segment's files, whose round trips and
// corruption checks are that package's TestRoundTrip, TestMaterializeEqualsSource,
// TestCorruptionEveryByte and TestTruncationRejected).
func saveTables(w io.Writer, ft *FileTable) error {
	return EncodeFrame(w, FrameVersion, func(bw *bufio.Writer) error {
		if _, err := bw.Write([]byte{KindManifest, 0}); err != nil {
			return err
		}
		if err := WriteFileTable(bw, ft); err != nil {
			return err
		}
		return WriteDocLengths(bw, ft)
	})
}

// loadTables reads what saveTables wrote.
func loadTables(data []byte) (*FileTable, error) {
	br, _, _, err := DecodeFrame(data, KindManifest)
	if err != nil {
		return nil, err
	}
	ft, err := ReadFileTable(br)
	if err != nil {
		return nil, err
	}
	if err := ReadDocLengths(br, ft); err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", br.Len())
	}
	return ft, nil
}

// savedTables is saveTables into memory.
func savedTables(t *testing.T, ft *FileTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := saveTables(&buf, ft); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameTables compares every persisted field of two file tables.
func sameTables(a, b *FileTable) bool {
	if a.Len() != b.Len() || a.LiveCount() != b.LiveCount() || a.LiveTokens() != b.LiveTokens() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		id := postings.FileID(i)
		if a.Path(id) != b.Path(id) || a.Size(id) != b.Size(id) || a.ModTime(id) != b.ModTime(id) ||
			a.Live(id) != b.Live(id) || a.Tokens(id) != b.Tokens(id) {
			return false
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ft := buildFileTable(50)
	loaded, err := loadTables(savedTables(t, ft))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ft.Len() {
		t.Fatalf("file table len = %d, want %d", loaded.Len(), ft.Len())
	}
	for i := 0; i < ft.Len(); i++ {
		id := postings.FileID(i)
		if loaded.Path(id) != ft.Path(id) || loaded.Size(id) != ft.Size(id) {
			t.Errorf("file %d: %q/%d vs %q/%d", i,
				loaded.Path(id), loaded.Size(id), ft.Path(id), ft.Size(id))
		}
	}
	if !sameTables(loaded, ft) {
		t.Error("loaded file table differs")
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	ft, err := loadTables(savedTables(t, NewFileTable()))
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 0 {
		t.Error("empty round trip not empty")
	}
}

// Property: round-trip over random small file tables, tombstones included.
func TestSaveLoadQuick(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ft := buildFileTable(1 + rng.Intn(20))
		ft.Tombstone(postings.FileID(rng.Intn(ft.Len())))
		got, err := loadTables(savedTables(t, ft))
		return err == nil && sameTables(got, ft)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLoadRejectsCorruption flips every byte of a frame in turn: each must
// be caught by the checksum (or, for trailer flips, by the mismatch against
// the recomputed sum) before anything is parsed.
func TestLoadRejectsCorruption(t *testing.T) {
	ft := buildFileTable(20)
	pristine := savedTables(t, ft)
	for pos := range pristine {
		corrupt := append([]byte(nil), pristine...)
		corrupt[pos] ^= 0x40
		if _, err := loadTables(corrupt); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	ft := buildFileTable(10)
	data := savedTables(t, ft)
	for _, n := range []int{0, 3, 7, 10, len(data) / 2, len(data) - 1} {
		if _, err := loadTables(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestLoadRejectsWrongMagicAndVersion(t *testing.T) {
	if _, err := loadTables([]byte("BOGUS-format-data-long-enough-000000")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSavePropagatesWriteErrors(t *testing.T) {
	ft := buildFileTable(10)
	if err := saveTables(failWriter{}, ft); err == nil {
		t.Error("save to failing writer succeeded")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("full disk") }
