package index

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"desksearch/internal/postings"
)

// TestDocLengthSaveLoadRoundTrip: the frame's doc-length section reloads
// every file's token length, and the reloaded table re-saves
// byte-identically (the fixed point every DSIX version maintains).
func TestDocLengthSaveLoadRoundTrip(t *testing.T) {
	ft := buildFileTable(40)
	ft.Tombstone(postings.FileID(7)) // tombstoned slots keep their length

	data := savedTables(t, ft)
	loaded, err := loadTables(data)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ft.Len(); id++ {
		fid := postings.FileID(id)
		if loaded.Tokens(fid) != ft.Tokens(fid) {
			t.Errorf("file %d: tokens = %d, want %d", id, loaded.Tokens(fid), ft.Tokens(fid))
		}
	}
	if loaded.LiveTokens() != ft.LiveTokens() {
		t.Errorf("LiveTokens = %d, want %d", loaded.LiveTokens(), ft.LiveTokens())
	}
	if again := savedTables(t, loaded); !bytes.Equal(again, data) {
		t.Error("re-saved frame differs from the original")
	}
}

// docLengthFrame hand-writes a manifest-kind frame whose doc-length section
// carries lengthCount entries for a two-file table — a section the honest
// writer can never produce (the checksum passes; only the contents are
// wrong).
func docLengthFrame(t *testing.T, lengthCount int) []byte {
	t.Helper()
	ft := NewFileTable()
	ft.Add("a.txt", 1, 1)
	ft.Add("b.txt", 2, 2)
	var buf bytes.Buffer
	err := EncodeFrame(&buf, FrameVersion, func(bw *bufio.Writer) error {
		if _, err := bw.Write([]byte{KindManifest, 0}); err != nil {
			return err
		}
		if err := WriteFileTable(bw, ft); err != nil {
			return err
		}
		if err := WriteUvarint(bw, uint64(lengthCount)); err != nil {
			return err
		}
		for i := 0; i < lengthCount; i++ {
			if err := WriteUvarint(bw, 5); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDocLengthCountMismatchRejected(t *testing.T) {
	data := docLengthFrame(t, 1) // 2 files, 1 length
	if _, err := loadTables(data); err == nil ||
		!strings.Contains(err.Error(), "doc-length count") {
		t.Errorf("mismatched doc-length section: err = %v", err)
	}
}

// TestDocLengthCorruptionRejected: bit flips anywhere in a frame —
// doc-length section included — fail the checksum or the parser.
func TestDocLengthCorruptionRejected(t *testing.T) {
	ft := buildFileTable(15)
	pristine := savedTables(t, ft)
	for _, pos := range []int{0, 4, 6, 7, len(pristine) / 3, len(pristine) / 2, len(pristine) - 1} {
		corrupt := append([]byte(nil), pristine...)
		corrupt[pos] ^= 0x40
		if _, err := loadTables(corrupt); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
}

// TestFileTableTokenBookkeeping pins the in-memory half: Add preallocates
// a slot, and LiveTokens skips tombstones.
func TestFileTableTokenBookkeeping(t *testing.T) {
	ft := NewFileTable()
	var ids []postings.FileID
	for i := 0; i < 4; i++ {
		ids = append(ids, ft.Add(fmt.Sprintf("f%d", i), 1, 1))
	}
	for i, id := range ids {
		ft.SetTokens(id, uint32(10*(i+1)))
	}
	if got := ft.LiveTokens(); got != 100 {
		t.Errorf("LiveTokens = %d, want 100", got)
	}
	ft.Tombstone(ids[3])
	if got := ft.LiveTokens(); got != 60 {
		t.Errorf("LiveTokens after tombstone = %d, want 60", got)
	}
	if ft.Tokens(ids[1]) != 20 {
		t.Errorf("Tokens = %d, want 20", ft.Tokens(ids[1]))
	}
}
