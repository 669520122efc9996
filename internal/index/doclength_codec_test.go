package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"desksearch/internal/postings"
)

// TestDocLengthSaveLoadRoundTrip: the frame's doc-length section reloads
// every file's token length, and the reloaded table re-saves
// byte-identically (the fixed point every DSIX version maintains).
func TestDocLengthSaveLoadRoundTrip(t *testing.T) {
	ft := buildFileTable(40)
	ft.Tombstone(postings.FileID(7)) // tombstoned slots keep their length

	data := savedTables(ft)
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
	if again := savedTables(loaded); !bytes.Equal(again, data) {
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
	b := AppendFileTable(AppendHeader(nil, KindManifest, 0), ft)
	b = binary.AppendUvarint(b, uint64(lengthCount))
	for i := 0; i < lengthCount; i++ {
		b = binary.AppendUvarint(b, 5)
	}
	return SealFrame(b)
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
	pristine := savedTables(ft)
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

// TestLiveTokensMatchesLoop: the running live-token sum equals a loop over
// every slot after any sequence of Add, SetTokens (re-sets of live and
// dead IDs included) and Tombstone, and so does the sum of the table
// reloaded from its saved sections, where ReadDocLengths sets the lengths
// of slots already tombstoned.
func TestLiveTokensMatchesLoop(t *testing.T) {
	loop := func(ft *FileTable) uint64 {
		var sum uint64
		for id := range ft.Len() {
			if ft.Live(postings.FileID(id)) {
				sum += uint64(ft.Tokens(postings.FileID(id)))
			}
		}
		return sum
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := NewFileTable()
		for step := range 1 + rng.Intn(60) {
			switch op := rng.Intn(4); {
			case op == 0 || ft.Len() == 0:
				ft.Add(fmt.Sprintf("f%d", step), 1, 1)
			case op == 1:
				ft.Tombstone(postings.FileID(rng.Intn(ft.Len())))
			default:
				n := uint32(rng.Intn(50))
				if rng.Intn(8) == 0 {
					n = 1<<32 - 1 - uint32(rng.Intn(4))
				}
				ft.SetTokens(postings.FileID(rng.Intn(ft.Len())), n)
			}
			if got, want := ft.LiveTokens(), loop(ft); got != want {
				t.Fatalf("seed %d step %d: LiveTokens = %d, loop = %d", seed, step, got, want)
			}
		}
		loaded, err := loadTables(savedTables(ft))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := loaded.LiveTokens(), loop(ft); got != want {
			t.Fatalf("seed %d: reloaded LiveTokens = %d, loop = %d", seed, got, want)
		}
	}
}

// TestLiveTokensConcurrentSetTokens: extractors set the token lengths of
// distinct files at once, as a build's do; the live sum sees every one.
func TestLiveTokensConcurrentSetTokens(t *testing.T) {
	ft := buildFileTable(400)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := w; id < ft.Len(); id += 4 {
				ft.SetTokens(postings.FileID(id), uint32(id%7))
			}
		}()
	}
	wg.Wait()
	var want uint64
	for id := range ft.Len() {
		want += uint64(id % 7)
	}
	if got := ft.LiveTokens(); got != want {
		t.Errorf("LiveTokens = %d, want %d", got, want)
	}
}
