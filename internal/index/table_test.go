package index

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"desksearch/internal/fnv"
	"desksearch/internal/postings"
)

// TestTermTableCollisions holds an index whose term table probes past
// colliding hashes to a map model through a build, a removal that empties
// one member of each colliding pair, a Join and MergeTerm at the end of the
// dictionary and inside it. The vocabulary holds two pairs of terms with
// equal FNV-1 hashes, one partner of each absent at some step, among
// enough terms to grow the builder's table at least three times.
func TestTermTableCollisions(t *testing.T) {
	pairs := [][2]string{{"m5jttwr", "xhknl3g"}, {"8x23n1h", "zqqkclt"}}
	for _, p := range pairs {
		if a, b := fnv.Hash32Bytes([]byte(p[0])), fnv.Hash32Bytes([]byte(p[1])); a != b || hashTerm(p[0]) != a {
			t.Fatalf("%q and %q hash to %#x and %#x, want one FNV-1 hash", p[0], p[1], a, b)
		}
	}
	model := map[string][]postings.FileID{}
	check := func(at string, ix *Index, absent ...string) {
		t.Helper()
		if ix.NumTerms() != len(model) {
			t.Fatalf("%s: %d terms, model %d", at, ix.NumTerms(), len(model))
		}
		for term, ids := range model {
			if l := ix.Lookup(term); l == nil || !slices.Equal(l.IDs(), ids) {
				t.Fatalf("%s: Lookup(%q) = %v, model %v", at, term, l, ids)
			}
			if df := ix.DocFreq(term); df != len(ids) {
				t.Fatalf("%s: DocFreq(%q) = %d, model %d", at, term, df, len(ids))
			}
		}
		for _, term := range absent {
			if _, ok := model[term]; ok {
				t.Fatalf("%s: %q is in the model", at, term)
			}
			if ix.Lookup(term) != nil || ix.DocFreq(term) != 0 {
				t.Fatalf("%s: absent %q found", at, term)
			}
		}
	}
	add := func(b *Builder, id postings.FileID, terms ...string) {
		b.AddBlock(id, terms, nil)
		for _, term := range terms {
			model[term] = append(model[term], id)
		}
	}

	// Files 0–999 hold 8 000 filler terms, eight each; m5jttwr and
	// 8x23n1h are in every tenth file, xhknl3g only in file 3, and
	// zqqkclt in none.
	b := NewBuilder(false)
	for f := postings.FileID(0); f < 1000; f++ {
		terms := make([]string, 0, 10)
		for k := 0; k < 8; k++ {
			terms = append(terms, fmt.Sprintf("w%04d", int(f)*8+k))
		}
		if f%10 == 0 {
			terms = append(terms, "m5jttwr", "8x23n1h")
		}
		if f == 3 {
			terms = append(terms, "xhknl3g")
		}
		add(b, f, terms...)
	}
	if got := len(b.table.slots); got < 8*builderInitialSlots {
		t.Fatalf("builder table has %d slots, want 3 doublings of %d", got, builderInitialSlots)
	}
	ix := b.Index()
	check("build", ix, "zqqkclt", "m5jttw", "xhknl3")

	// Removing file 3 empties xhknl3g; its partner stays.
	ix.RemoveFiles(postings.FromIDs([]postings.FileID{3, 20}))
	for term, ids := range model {
		ids = slices.DeleteFunc(slices.Clone(ids), func(id postings.FileID) bool { return id == 3 || id == 20 })
		if len(ids) == 0 {
			delete(model, term)
		} else {
			model[term] = ids
		}
	}
	check("RemoveFiles", ix, "xhknl3g", "zqqkclt")

	// A join brings back xhknl3g and brings in zqqkclt, with terms on both
	// sides of every existing one.
	other := NewBuilder(false)
	add(other, 1000, "xhknl3g", "zqqkclt", "a", "w0000a", "zz")
	add(other, 1001, "8x23n1h", "w99999")
	ix.Join(other.Index())
	check("Join", ix, "m5jttw")

	// MergeTerm of a term past every other appends; of one inside the
	// dictionary rebuilds the table.
	for _, term := range []string{"zzz", "m5jttwra", "zqqkclt"} {
		ix.MergeTerm(term, postings.FromIDs([]postings.FileID{1002}))
		model[term] = append(model[term], 1002)
		check("MergeTerm "+term, ix, "m5jttw")
	}

	// Merged into an empty index in ascending order, every insert grows the
	// table from nothing by appends.
	grown := New(0)
	ix.Range(func(term string, l *postings.List) bool {
		grown.MergeTerm(term, l.Clone())
		return true
	})
	if got, want := len(grown.table.slots), slotsFor(len(model)); got != want {
		t.Fatalf("appended table has %d slots, want %d", got, want)
	}
	check("MergeTerm into New(0)", grown, "m5jttw")
	if !grown.Equal(ix) {
		t.Fatal("index merged term by term differs from its source")
	}
}

// TestResidentBytesMatchesRetainedHeap holds ResidentBytes for a built
// partition to within 20% of the heap that building it retains, measured
// after a collection: the term strings, the lists' columns and headers, the
// dictionary slices, the term table and the document set.
func TestResidentBytesMatchesRetainedHeap(t *testing.T) {
	for _, positional := range []bool{false, true} {
		t.Run(fmt.Sprintf("positional=%v", positional), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ix := buildZipf(positional, 2000, 20000)
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			est := ix.ResidentBytes()
			runtime.KeepAlive(ix)
			if ratio := float64(est) / float64(retained); ratio < 0.8 || ratio > 1.2 {
				t.Fatalf("ResidentBytes %d, retained heap %d (ratio %.2f)", est, retained, ratio)
			}
		})
	}
}

// buildZipf builds an index of files files over a vocabulary of terms
// terms, freshly allocated, each file holding 60 terms drawn with a skew
// toward the first ones, as text is.
func buildZipf(positional bool, files, terms int) *Index {
	b := NewBuilder(positional)
	state := uint32(1)
	rand := func(n int) int {
		state = state*1664525 + 1013904223
		return int(state>>8) % n
	}
	vocab := make([]string, terms)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%x", i*2654435761)
	}
	for f := 0; f < files; f++ {
		seen := map[int]bool{}
		var block []string
		for len(block) < 60 {
			k := rand(1 + rand(terms))
			if !seen[k] {
				seen[k] = true
				block = append(block, vocab[k])
			}
		}
		if positional {
			ends, pos := make([]uint32, len(block)), make([]uint32, len(block))
			for i := range block {
				ends[i], pos[i] = uint32(i+1), uint32(i)
			}
			b.AddBlockPositional(postings.FileID(f), block, ends, pos)
		} else {
			b.AddBlock(postings.FileID(f), block, nil)
		}
	}
	return b.Index()
}
