package index

import (
	"fmt"
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

// savedTables is ft as the head of a manifest frame — kind, zero flags,
// file table, doc-length section — which is every payload section this
// package still encodes (internal/shard appends the segment directory, and
// posting lists live in internal/segment's files, whose round trips and
// corruption checks are that package's TestRoundTrip, TestMaterializeEqualsSource,
// TestCorruptionEveryByte and TestTruncationRejected).
func savedTables(ft *FileTable) []byte {
	b := AppendHeader(nil, KindManifest, 0)
	b = AppendFileTable(b, ft)
	return SealFrame(AppendDocLengths(b, ft))
}

// loadTables reads what savedTables wrote.
func loadTables(data []byte) (*FileTable, error) {
	c, _, err := OpenFrame(data, KindManifest)
	if err != nil {
		return nil, err
	}
	ft, err := ReadFileTable(c)
	if err != nil {
		return nil, err
	}
	if err := ReadDocLengths(c, ft); err != nil {
		return nil, err
	}
	if c.Left() != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", c.Left())
	}
	return ft, nil
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
	loaded, err := loadTables(savedTables(ft))
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
	ft, err := loadTables(savedTables(NewFileTable()))
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
		got, err := loadTables(savedTables(ft))
		return err == nil && sameTables(got, ft)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLoadRejectsCorruption flips every bit of a frame in turn, then
// inverts a 4-byte burst at every offset: CRC-32C detects every error burst
// of up to 32 bits, so each must be caught by the checksum (or, for trailer
// flips, by the mismatch against the recomputed sum) before anything is
// parsed.
func TestLoadRejectsCorruption(t *testing.T) {
	ft := buildFileTable(20)
	pristine := savedTables(ft)
	for pos := range pristine {
		for bit := range 8 {
			corrupt := append([]byte(nil), pristine...)
			corrupt[pos] ^= 1 << bit
			if _, err := loadTables(corrupt); err == nil {
				t.Fatalf("flipping bit %d of byte %d not detected", bit, pos)
			}
		}
		corrupt := append([]byte(nil), pristine...)
		for i := pos; i < min(pos+4, len(corrupt)); i++ {
			corrupt[i] ^= 0xff
		}
		if _, err := loadTables(corrupt); err == nil {
			t.Fatalf("a 4-byte burst at byte %d not detected", pos)
		}
	}
}

// TestChecksumKnownAnswer pins the algorithm every DSIX checksum uses:
// CRC-32C's check value, in the one-shot and the streaming form.
func TestChecksumKnownAnswer(t *testing.T) {
	const check = 0xE3069283
	if got := Checksum([]byte("123456789")); got != check {
		t.Errorf("Checksum(%q) = %#x, want %#x", "123456789", got, check)
	}
	h := NewChecksum()
	h.Write([]byte("1234"))
	h.Write([]byte("56789"))
	if got := h.Sum32(); got != check {
		t.Errorf("NewChecksum over %q = %#x, want %#x", "123456789", got, check)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	ft := buildFileTable(10)
	data := savedTables(ft)
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
