package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"desksearch/internal/postings"
)

// frameVersion extracts the u16 version of a DSIX frame's header.
func frameVersion(t *testing.T, data []byte) uint16 {
	t.Helper()
	if len(data) < 6 {
		t.Fatalf("frame too short: %d bytes", len(data))
	}
	return binary.LittleEndian.Uint16(data[4:6])
}

// buildTokenIndex is buildSampleIndex plus a deterministic token length per
// file — the fresh-build shape.
func buildTokenIndex(rng *rand.Rand, nFiles, vocab int) (*Index, *FileTable) {
	ix, ft := buildSampleIndex(rng, nFiles, vocab)
	for id := 0; id < ft.Len(); id++ {
		ft.SetTokens(postings.FileID(id), uint32(10+id*3))
	}
	return ix, ft
}

// TestDocLengthSaveLoadRoundTrip: a fresh build persists as a v9 frame
// whose doc-length section reloads every file's token length, and the
// reloaded catalog re-saves byte-identically (the fixed-point every DSIX
// version maintains).
func TestDocLengthSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix, ft := buildTokenIndex(rng, 40, 25)
	ft.Tombstone(postings.FileID(7)) // tombstoned slots keep their length

	var buf bytes.Buffer
	if err := Save(&buf, ix, ft); err != nil {
		t.Fatal(err)
	}
	if v := frameVersion(t, buf.Bytes()); v != FrameVersion {
		t.Fatalf("frame version = %d, want %d", v, FrameVersion)
	}

	loadedIx, loadedFt, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loadedIx.Equal(ix) {
		t.Error("loaded index differs")
	}
	for id := 0; id < ft.Len(); id++ {
		fid := postings.FileID(id)
		if loadedFt.Tokens(fid) != ft.Tokens(fid) {
			t.Errorf("file %d: tokens = %d, want %d", id, loadedFt.Tokens(fid), ft.Tokens(fid))
		}
	}
	if loadedFt.LiveTokens() != ft.LiveTokens() {
		t.Errorf("LiveTokens = %d, want %d", loadedFt.LiveTokens(), ft.LiveTokens())
	}

	// Re-saving keeps the v9 format (term-section byte order is
	// hash-map-dependent, so only the frame version is pinned here).
	var again bytes.Buffer
	if err := Save(&again, loadedIx, loadedFt); err != nil {
		t.Fatal(err)
	}
	if v := frameVersion(t, again.Bytes()); v != FrameVersion {
		t.Errorf("re-saved frame version = %d, want %d", v, FrameVersion)
	}
}

// TestDocLengthPositionalFlag: positional posting lists ride the v9 frame's
// flags byte, and the loaded index remembers positional-ness from it.
func TestDocLengthPositionalFlag(t *testing.T) {
	ft := NewFileTable()
	ix := New(0)
	id := ft.Add("a.txt", 10, 1)
	ft.SetTokens(id, 3)
	ix.AddBlockPositional(id, []string{"cat", "dog"}, [][]uint32{{0, 2}, {1}})

	var buf bytes.Buffer
	if err := Save(&buf, ix, ft); err != nil {
		t.Fatal(err)
	}
	if v := frameVersion(t, buf.Bytes()); v != FrameVersion {
		t.Fatalf("frame version = %d, want %d", v, FrameVersion)
	}
	loadedIx, loadedFt, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loadedIx.Positional() {
		t.Error("positional-ness lost through the v9 flags byte")
	}
	if loadedFt.Tokens(id) != 3 {
		t.Errorf("tokens = %d, want 3", loadedFt.Tokens(id))
	}
}

// docLengthFrame hand-writes a v9 full-index frame with a chosen flags byte
// and doc-length count, so validation paths the honest writer can never
// produce (the checksum passes; only the section contents are wrong) are
// still exercised.
func docLengthFrame(t *testing.T, flags byte, lengthCount int) []byte {
	t.Helper()
	ft := NewFileTable()
	ft.Add("a.txt", 1, 1)
	ft.Add("b.txt", 2, 2)
	var buf bytes.Buffer
	err := EncodeFrame(&buf, FrameVersion, func(bw *bufio.Writer) error {
		if err := bw.WriteByte(kindFullIndex); err != nil {
			return err
		}
		if err := bw.WriteByte(flags); err != nil {
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
		// Empty term section.
		return WriteUvarint(bw, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDocLengthCountMismatchRejected(t *testing.T) {
	data := docLengthFrame(t, 0, 1) // 2 files, 1 length
	if _, _, err := Load(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "doc-length count") {
		t.Errorf("mismatched doc-length section: err = %v", err)
	}
}

func TestDocLengthUnknownFlagsRejected(t *testing.T) {
	data := docLengthFrame(t, 0x4, 2)
	if _, _, err := Load(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "flags") {
		t.Errorf("unknown flags: err = %v", err)
	}
}

// TestDocLengthCorruptionRejected: bit flips anywhere in a v9 frame —
// doc-length section included — fail the checksum or the parser.
func TestDocLengthCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix, ft := buildTokenIndex(rng, 15, 10)
	var buf bytes.Buffer
	if err := Save(&buf, ix, ft); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	for _, pos := range []int{0, 4, 6, 7, len(pristine) / 3, len(pristine) / 2, len(pristine) - 1} {
		corrupt := append([]byte(nil), pristine...)
		corrupt[pos] ^= 0x40
		if _, _, err := Load(bytes.NewReader(corrupt)); err == nil {
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
