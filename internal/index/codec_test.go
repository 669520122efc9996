package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// TestCursorFailureSticks: the first failure is the one Err reports, and
// every read after it returns zero, even where bytes are left that would
// have read cleanly.
func TestCursorFailureSticks(t *testing.T) {
	c := NewCursor([]byte{7, 0xaa, 0xbb})
	if v := c.Uvarint(); v != 7 || c.Err() != nil {
		t.Fatalf("Uvarint = %d, %v; want 7, nil", v, c.Err())
	}
	if v := c.U32(); v != 0 || c.Err() == nil {
		t.Fatalf("U32 over 2 bytes = %d, %v; want 0 and a failure", v, c.Err())
	}
	first := c.Err()
	if !strings.Contains(first.Error(), "u32 overruns") {
		t.Fatalf("first failure %q does not name the u32", first)
	}
	if v := c.Byte(); v != 0 {
		t.Errorf("Byte after a failure = %#x, want 0", v)
	}
	if v := c.Uvarint(); v != 0 {
		t.Errorf("Uvarint after a failure = %d, want 0", v)
	}
	if v := c.Int(); v != 0 {
		t.Errorf("Int after a failure = %d, want 0", v)
	}
	if v := c.U64(); v != 0 {
		t.Errorf("U64 after a failure = %d, want 0", v)
	}
	if v := c.StrBytes(); v != nil {
		t.Errorf("StrBytes after a failure = %q, want nil", v)
	}
	if v := c.Count("entry", 1); v != 0 {
		t.Errorf("Count after a failure = %d, want 0", v)
	}
	if v := c.IDs(); v != nil {
		t.Errorf("IDs after a failure = %v, want nil", v)
	}
	if c.Err() != first {
		t.Errorf("Err changed from %q to %q", first, c.Err())
	}
}

// TestCursorCount: a count is refused when the bytes left cannot hold that
// many entries of the given least size, and accepted when they just can.
func TestCursorCount(t *testing.T) {
	region := func(count uint64, left int) []byte {
		return append(binary.AppendUvarint(nil, count), make([]byte, left)...)
	}
	if c := NewCursor(region(3, 6)); c.Count("entry", 2) != 3 || c.Err() != nil {
		t.Errorf("3 entries of 2 bytes in 6: %v", c.Err())
	}
	c := NewCursor(region(3, 5))
	if n := c.Count("entry", 2); n != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), "absurd entry count 3") {
		t.Errorf("3 entries of 2 bytes in 5: Count = %d, %v; want 0 and an absurd entry count", n, c.Err())
	}
	if c := NewCursor(region(1<<60, 64)); c.Count("entry", 1) != 0 || c.Err() == nil {
		t.Error("a count of 2^60 over 64 bytes was accepted")
	}
}

// TestCursorFixedWidth: U32 and U64 read little-endian and fail one byte
// short.
func TestCursorFixedWidth(t *testing.T) {
	b := binary.LittleEndian.AppendUint64(nil, 0x0102030405060708)
	if c := NewCursor(b); c.U64() != 0x0102030405060708 || c.Left() != 0 || c.Err() != nil {
		t.Errorf("U64 misread %x", b)
	}
	if c := NewCursor(b[:4]); c.U32() != 0x05060708 || c.Err() != nil {
		t.Errorf("U32 misread %x", b[:4])
	}
	if c := NewCursor(b[:7]); c.U64() != 0 || c.Err() == nil {
		t.Error("U64 over 7 bytes did not fail")
	}
	if c := NewCursor(b[:3]); c.U32() != 0 || c.Err() == nil {
		t.Error("U32 over 3 bytes did not fail")
	}
}

// TestCursorUvarint: one-byte and longer uvarints read alike, the largest
// uint64 reads, and a uvarint past 64 bits or cut short fails.
func TestCursorUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 300, 1 << 35, math.MaxUint64} {
		c := NewCursor(binary.AppendUvarint(nil, v))
		if got := c.Uvarint(); got != v || c.Left() != 0 || c.Err() != nil {
			t.Errorf("Uvarint(%d) = %d, left %d, %v", v, got, c.Left(), c.Err())
		}
	}
	bad := map[string][]byte{
		"65 bits":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"11 bytes":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		"cut short": {0x80, 0x80},
		"empty":     {},
	}
	for name, b := range bad {
		if c := NewCursor(b); c.Uvarint() != 0 || c.Err() == nil {
			t.Errorf("%s: uvarint %x accepted", name, b)
		}
	}
}

// TestCursorInt: Int takes every non-negative int and refuses a uvarint
// above math.MaxInt.
func TestCursorInt(t *testing.T) {
	if c := NewCursor(binary.AppendUvarint(nil, math.MaxInt)); c.Int() != math.MaxInt || c.Err() != nil {
		t.Errorf("Int(MaxInt) failed: %v", c.Err())
	}
	if c := NewCursor(binary.AppendUvarint(nil, math.MaxInt+1)); c.Int() != 0 || c.Err() == nil {
		t.Error("Int accepted MaxInt+1")
	}
}

// TestCursorStrBytes: a string aliases the region rather than copying it,
// and a length over maxString is refused even when the bytes are there.
func TestCursorStrBytes(t *testing.T) {
	b := append(AppendString(nil, "abc"), 'x')
	c := NewCursor(b)
	got := c.StrBytes()
	if string(got) != "abc" || &got[0] != &b[1] || c.Left() != 1 {
		t.Errorf("StrBytes = %q (aliasing %v), left %d", got, len(got) > 0 && &got[0] == &b[1], c.Left())
	}
	long := AppendString(nil, strings.Repeat("a", maxString))
	if c := NewCursor(long); len(c.StrBytes()) != maxString || c.Err() != nil {
		t.Errorf("a %d-byte string was refused: %v", maxString, c.Err())
	}
	c = NewCursor(AppendString(nil, strings.Repeat("a", maxString+1)))
	if got := c.StrBytes(); got != nil || c.Err() == nil || !strings.Contains(c.Err().Error(), "absurd string length") {
		t.Errorf("a %d-byte string read as %d bytes, %v", maxString+1, len(got), c.Err())
	}
}

// TestCursorFailureAllocations: a rejection costs one allocation, the
// error, plus one for Count's message, whatever the read and under the
// race detector too; the message is built only when it is read.
func TestCursorFailureAllocations(t *testing.T) {
	over := binary.AppendUvarint(nil, 1<<60)
	cases := map[string]struct {
		b     []byte
		read  func(c *Cursor)
		alloc float64
	}{
		"uvarint": {[]byte{0x80}, func(c *Cursor) { c.Uvarint() }, 1},
		"int":     {binary.AppendUvarint(nil, math.MaxInt+1), func(c *Cursor) { c.Int() }, 1},
		"u32":     {[]byte{1, 2}, func(c *Cursor) { c.U32() }, 1},
		"string":  {AppendString(nil, "abc")[:2], func(c *Cursor) { c.StrBytes() }, 1},
		"count":   {over, func(c *Cursor) { c.Count("entry", 1) }, 2},
	}
	for name, tc := range cases {
		var c Cursor
		if allocs := testing.AllocsPerRun(200, func() {
			c = Cursor{b: tc.b}
			tc.read(&c)
		}); allocs != tc.alloc || c.Err() == nil {
			t.Errorf("%s: a rejection took %.2f allocations (want %.0f), Err %v", name, allocs, tc.alloc, c.Err())
		}
	}
}

// TestReadFileTableAllocations: a parse sizes the table once from the
// section's count. Beyond one string per path it makes the five columns,
// the table itself and what a map presized for every path costs.
func TestReadFileTableAllocations(t *testing.T) {
	const files = 10_000
	ft := buildFileTable(files)
	b := AppendFileTable(nil, ft)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadFileTable(NewCursor(b)); err != nil {
			t.Fatal(err)
		}
	})
	// 5 columns, the table, and 34 for the presized map on go1.24 (its
	// header, directory and tables); columns and a map grown by
	// doubling made 171.
	if extra := allocs - files; extra > 48 {
		t.Errorf("ReadFileTable of %d files made %.0f allocations beyond one a path, want at most 48", files, extra)
	}
}
