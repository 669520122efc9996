package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"desksearch/internal/postings"
)

// buildPositionalIndex builds a positional sample index: every term block
// carries ascending occurrence positions.
func buildPositionalIndex(rng *rand.Rand, nFiles, vocab int) (*Index, *FileTable) {
	ft := NewFileTable()
	ix := New(0)
	ix.SetPositional()
	for f := 0; f < nFiles; f++ {
		id := ft.Add(fmt.Sprintf("dir%d/file%d.txt", f%4, f), int64(100+f), int64(f+1))
		n := 1 + rng.Intn(8)
		if n > vocab {
			n = vocab
		}
		seen := map[string]bool{}
		var terms []string
		for len(terms) < n {
			w := fmt.Sprintf("term%d", rng.Intn(vocab))
			if !seen[w] {
				seen[w] = true
				terms = append(terms, w)
			}
		}
		positions := make([][]uint32, len(terms))
		pos := uint32(0)
		for i := range terms {
			run := make([]uint32, 0, 3)
			for k := 0; k <= rng.Intn(3); k++ {
				pos += uint32(1 + rng.Intn(4))
				run = append(run, pos)
			}
			positions[i] = run
		}
		ix.AddBlockPositional(id, terms, positions)
	}
	// A few deletions exercise tombstones in the file table too.
	if nFiles > 4 {
		victim := postings.FileID(rng.Intn(nFiles))
		ix.RemoveFiles(postings.FromIDs([]postings.FileID{victim}))
		ft.Tombstone(victim)
	}
	return ix, ft
}

func TestPositionalSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix, ft := buildPositionalIndex(rng, 40, 25)
	var buf bytes.Buffer
	if err := Save(&buf, ix, ft); err != nil {
		t.Fatal(err)
	}
	loaded, loadedFt, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Positional() {
		t.Fatal("loaded index lost its positional flag")
	}
	if !loaded.Equal(ix) {
		t.Fatal("loaded index differs (positions compared)")
	}
	if loadedFt.Len() != ft.Len() || loadedFt.LiveCount() != ft.LiveCount() {
		t.Fatalf("file table: %d/%d live, want %d/%d",
			loadedFt.LiveCount(), loadedFt.Len(), ft.LiveCount(), ft.Len())
	}
}

func TestPositionalSaveLoadQuick(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, ft := buildPositionalIndex(rng, 1+rng.Intn(20), 1+rng.Intn(15))
		var buf bytes.Buffer
		if err := Save(&buf, ix, ft); err != nil {
			return false
		}
		got, gotFt, err := Load(&buf)
		if err != nil {
			return false
		}
		return got.Positional() && got.Equal(ix) && gotFt.Len() == ft.Len()
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPositionalLoadRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ix, ft := buildPositionalIndex(rng, 20, 10)
	var buf bytes.Buffer
	if err := Save(&buf, ix, ft); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip every byte in turn: the checksum (or, for trailer flips, the
	// mismatch against the recomputed sum) must reject each one —
	// positional payloads get exactly the corruption detection plain ones
	// have.
	for pos := range pristine {
		corrupt := append([]byte(nil), pristine...)
		corrupt[pos] ^= 0x40
		if _, _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
	for _, n := range []int{0, 3, 7, len(pristine) / 2, len(pristine) - 1} {
		if _, _, err := Load(bytes.NewReader(pristine[:n])); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestJoinAndClonePropagatePositional(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a, _ := buildPositionalIndex(rng, 8, 6)
	b, _ := buildPositionalIndex(rng, 8, 6)
	if !a.Clone().Positional() {
		t.Error("clone lost the positional flag")
	}
	a.Join(b)
	if !a.Positional() {
		t.Error("join lost the positional flag")
	}
}
