package index_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/segment"
)

// TestDictionaryMatchesMapModel runs seeded sequences of every dictionary
// mutator against a plain term → file-IDs map and, after each step,
// compares every read: Lookup and DocFreq of present and absent terms, the
// counts, Docs, the ascending walks of TermsFrom and Range, and the term
// order Window emits in. At random steps the index is written as a segment
// and materialized back, and the sequence goes on mutating the loaded
// index, so the order and document set a load adopts are held to the same
// model as the ones the mutators keep.
func TestDictionaryMatchesMapModel(t *testing.T) {
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", i)
	}
	absent := []string{"", "t", "t40", "zz"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		positional := seed%2 == 0
		ix := index.New(rng.Intn(64))
		if positional {
			ix.SetPositional()
		}
		model := map[string][]postings.FileID{}
		next := postings.FileID(0) // every ID below it has been issued
		// terms picks 1..8 distinct words, as a duplicate-free block holds.
		terms := func() []string {
			picked := rng.Perm(len(vocab))[:1+rng.Intn(8)]
			out := make([]string, len(picked))
			for i, p := range picked {
				out[i] = vocab[p]
			}
			return out
		}
		// add logs a block under a fresh ID into dst, whose index is then
		// joined into ix.
		add := func(dst *index.Builder, terms []string) {
			id := next
			next++
			ends, pos := make([]uint32, len(terms)), make([]uint32, len(terms))
			for i, term := range terms {
				ends[i], pos[i] = uint32(i+1), uint32(i)
				model[term] = union(model[term], id)
			}
			if positional {
				dst.AddBlockPositional(id, terms, ends, pos)
			} else {
				dst.AddBlock(id, terms, nil)
			}
		}
		for step := 0; step < 60; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "AddBlock"
				one := index.NewBuilder(positional)
				add(one, terms())
				ix.Join(one.Index())
			case r < 6:
				op = "MergeTerm"
				term := vocab[rng.Intn(len(vocab))]
				l := &postings.List{}
				for k := rng.Intn(4); k >= 0; k-- {
					// An issued ID, or a fresh one.
					id := postings.FileID(rng.Intn(int(next) + 1))
					if id == next {
						next++
					}
					if positional {
						l.Merge(postings.FromSortedIDPositions([]postings.FileID{id}, [][]uint32{{0}}))
					} else {
						l.Add(id)
					}
					model[term] = union(model[term], id)
				}
				ix.MergeTerm(term, l)
			case r < 8:
				op = "RemoveFiles"
				var victims []postings.FileID
				for k := rng.Intn(6); k >= 0; k-- {
					victims = append(victims, postings.FileID(rng.Intn(int(next)+2)))
				}
				want := 0
				for term, ids := range model {
					kept := ids[:0:0]
					for _, id := range ids {
						if slices.Contains(victims, id) {
							want++
						} else {
							kept = append(kept, id)
						}
					}
					if len(kept) == 0 {
						delete(model, term)
					} else {
						model[term] = kept
					}
				}
				if got := ix.RemoveFiles(postings.FromIDs(victims)); got != want {
					t.Fatalf("seed %d step %d: RemoveFiles removed %d postings, model %d", seed, step, got, want)
				}
			default:
				op = "Join"
				other := index.NewBuilder(positional)
				for k := rng.Intn(4); k >= 0; k-- {
					add(other, terms())
				}
				ix.Join(other.Index())
			}
			if rng.Intn(6) == 0 {
				op += ", then Write and Materialize"
				ix = roundTrip(t, ix)
			}
			checkAgainstModel(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), ix, model, absent, positional)
		}
	}
}

// roundTrip writes ix as a segment and returns the segment materialized.
func roundTrip(t *testing.T, ix *index.Index) *index.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := segment.Write(&buf, ix); err != nil {
		t.Fatal(err)
	}
	r, err := segment.OpenBytes("round-trip", buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	loaded, err := r.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// union returns ids with id added, ascending and duplicate-free.
func union(ids []postings.FileID, id postings.FileID) []postings.FileID {
	i, found := slices.BinarySearch(ids, id)
	if found {
		return ids
	}
	return slices.Insert(slices.Clone(ids), i, id)
}

func checkAgainstModel(t *testing.T, at string, ix *index.Index, model map[string][]postings.FileID, absent []string, positional bool) {
	t.Helper()
	keys := make([]string, 0, len(model))
	postingsWant := int64(0)
	var docs []postings.FileID
	for term, ids := range model {
		keys = append(keys, term)
		postingsWant += int64(len(ids))
		for _, id := range ids {
			docs = union(docs, id)
		}
		if l := ix.Lookup(term); l == nil || !slices.Equal(l.IDs(), ids) {
			t.Fatalf("%s: Lookup(%q) = %v, model %v", at, term, l, ids)
		}
		if df := ix.DocFreq(term); df != len(ids) {
			t.Fatalf("%s: DocFreq(%q) = %d, model %d", at, term, df, len(ids))
		}
	}
	sort.Strings(keys)
	for _, term := range absent {
		if l := ix.Lookup(term); l != nil || ix.DocFreq(term) != 0 {
			t.Fatalf("%s: absent term %q found", at, term)
		}
	}
	if ix.NumTerms() != len(model) || ix.NumPostings() != postingsWant {
		t.Fatalf("%s: %d terms, %d postings; model %d, %d", at, ix.NumTerms(), ix.NumPostings(), len(model), postingsWant)
	}
	if got := ix.Docs().IDs(); !slices.Equal(got, docs) {
		t.Fatalf("%s: Docs = %v, model %v", at, got, docs)
	}
	var walked []string
	w := ix.TermsFrom("")
	for term, df, ok := w.Next(); ok; term, df, ok = w.Next() {
		if df != len(model[term]) {
			t.Fatalf("%s: TermsFrom df(%q) = %d, model %d", at, term, df, len(model[term]))
		}
		walked = append(walked, term)
	}
	if !slices.Equal(walked, keys) {
		t.Fatalf("%s: TermsFrom walked %v, model %v", at, walked, keys)
	}
	walked = walked[:0]
	w = ix.TermsFrom("t2")
	for term, _, ok := w.Next(); ok; term, _, ok = w.Next() {
		walked = append(walked, term)
	}
	if want := keys[sort.SearchStrings(keys, "t2"):]; !slices.Equal(walked, want) {
		t.Fatalf("%s: TermsFrom(\"t2\") walked %v, model %v", at, walked, want)
	}
	walked = walked[:0]
	ix.Range(func(term string, l *postings.List) bool {
		if !slices.Equal(l.IDs(), model[term]) {
			t.Fatalf("%s: Range list of %q = %v, model %v", at, term, l.IDs(), model[term])
		}
		walked = append(walked, term)
		return true
	})
	if !slices.Equal(walked, keys) {
		t.Fatalf("%s: Range walked %v, model %v", at, walked, keys)
	}
	if !positional {
		return
	}
	// Every posting carries a position, so a window over every file and
	// position reaches every term, and Window names them in ascending
	// order, each once in a row.
	lo, hi := make([]uint32, len(docs)), make([]uint32, len(docs))
	for i := range hi {
		hi[i] = math.MaxUint32
	}
	walked = walked[:0]
	ix.Window(docs, lo, hi, func(_ int, term string, _ uint32) {
		if n := len(walked); n == 0 || walked[n-1] != term {
			walked = append(walked, term)
		}
	})
	if !slices.Equal(walked, keys) {
		t.Fatalf("%s: Window emitted terms %v, model %v", at, walked, keys)
	}
}

// TestDocsAllocsIndependentOfTerms: an index keeps its document set, so
// Docs is the union of its lists' IDs straight from Builder.Index, from a
// segment's Materialize, and after each of Join, MergeTerm and RemoveFiles
// — and it copies the set rather than reading a posting, so 100 terms
// and 10 000 terms over the same 100 files cost Docs the same number of
// allocations. The list Docs returns is the caller's: changing it changes
// nothing the index answers.
func TestDocsAllocsIndependentOfTerms(t *testing.T) {
	check := func(at string, ix *index.Index) {
		t.Helper()
		var held []postings.FileID
		ix.Range(func(_ string, l *postings.List) bool {
			for _, id := range l.IDs() {
				held = union(held, id)
			}
			return true
		})
		docs := ix.Docs()
		if !slices.Equal(docs.IDs(), held) {
			t.Fatalf("%s: Docs = %v, union of the lists %v", at, docs.IDs(), held)
		}
		if docs.Len() > 0 {
			docs.IDs()[0] = 1 << 20
			docs.Merge(postings.FromIDs([]postings.FileID{1<<20 + 1}))
			if got := ix.Docs().IDs(); !slices.Equal(got, held) {
				t.Fatalf("%s: after changing the returned list, Docs = %v, want %v", at, got, held)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	build := func(positional bool, ids ...postings.FileID) *index.Index {
		b := index.NewBuilder(positional)
		for _, id := range ids {
			terms := []string{"common", fmt.Sprintf("w%d", rng.Intn(20)), fmt.Sprintf("f%d", id)}
			if positional {
				b.AddBlockPositional(id, terms, []uint32{1, 2, 3}, []uint32{0, 1, 2})
			} else {
				b.AddBlock(id, terms, nil)
			}
		}
		return b.Index()
	}
	for _, positional := range []bool{false, true} {
		at := fmt.Sprintf("positional=%v", positional)
		ix := build(positional, 9, 3, 70, 12, 130, 5)
		check(at+": Builder.Index", ix)
		ix = roundTrip(t, ix)
		check(at+": Materialize", ix)
		ix.Join(build(positional, 200, 4, 64))
		check(at+": Join", ix)
		ix.MergeTerm("merged", postings.FromIDs([]postings.FileID{1, 300}))
		check(at+": MergeTerm", ix)
		// Victims from both halves of the join and the merged list, and
		// one (1000) the index does not hold.
		ix.RemoveFiles(postings.FromIDs([]postings.FileID{130, 300, 64, 1000}))
		check(at+": RemoveFiles", ix)
		ix.RemoveFiles(ix.Docs())
		check(at+": RemoveFiles of every file", ix)
		if ix.NumTerms() != 0 {
			t.Fatalf("%s: %d terms left after removing every file", at, ix.NumTerms())
		}
	}

	const files = 100
	allocs := func(terms int) float64 {
		b := index.NewBuilder(false)
		for f := 0; f < files; f++ {
			var block []string
			for i := f; i < terms; i += files {
				block = append(block, fmt.Sprintf("t%05d", i))
			}
			b.AddBlock(postings.FileID(f), block, nil)
		}
		ix := b.Index()
		if got := ix.Docs().Len(); got != files {
			t.Fatalf("%d terms: Docs holds %d files, want %d", terms, got, files)
		}
		return testing.AllocsPerRun(10, func() { ix.Docs() })
	}
	if few, many := allocs(100), allocs(10_000); few != many {
		t.Fatalf("Docs allocates %v times over 100 terms and %v over 10 000", few, many)
	}
}

// fuzzVocab is FuzzDictionary's vocabulary: two pairs of terms with equal
// FNV-1 hashes (m5jttwr and xhknl3g hash to 0x22059808, 8x23n1h and
// zqqkclt to 0x496001e5) among terms that hash apart, so a probe must
// tell the members of a pair apart by their bytes.
var fuzzVocab = []string{
	"m5jttwr", "xhknl3g", "8x23n1h", "zqqkclt",
	"a", "b", "ba", "m5jttw", "m5jttwrx", "t00", "t01", "t02", "xhknl3", "zz", "zzz", "9",
}

// dictOps reads a FuzzDictionary program: bytes past the end read as 0.
type dictOps struct {
	b []byte
	i int
}

func (r *dictOps) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// terms reads a duplicate-free block: fuzzVocab's terms whose bits are set
// in a two-byte mask, or the first term when none is.
func (r *dictOps) terms() []string {
	mask := r.next() | r.next()<<8
	var out []string
	for k, term := range fuzzVocab {
		if mask&(1<<k) != 0 {
			out = append(out, term)
		}
	}
	if out == nil {
		out = fuzzVocab[:1]
	}
	return out
}

// FuzzDictionary runs TestDictionaryMatchesMapModel's mutators — a
// one-block Join, MergeTerm, RemoveFiles, a many-block Join, and a
// segment Write and Materialize — in the order, and on the blocks,
// merged lists and victims, that the program's bytes choose, over
// fuzzVocab. After every step it holds every read to the model, and every
// vocabulary term the model lacks to being absent, so a term table a
// mutation leaves stale, or a probe that stops at the wrong member of a
// colliding pair, is searched for and not only seeded.
//
// The program's first byte's low bit makes the index positional and its
// second sizes index.New. Each step is then an op byte (mod 5) and its
// operands: a block is a two-byte term mask; MergeTerm a term byte, a
// count byte (mod 4, plus 1) and that many ID bytes; RemoveFiles a count
// byte (mod 6, plus 1) and that many ID bytes; Join a count byte (mod 4,
// plus 1) and that many blocks. An ID byte picks an issued ID, or a fresh
// one when it is the number of IDs issued; RemoveFiles' may name IDs past
// both.
func FuzzDictionary(f *testing.F) {
	// Both members of each pair, then one removed, then rejoined.
	f.Add([]byte{0, 0, 0, 0x0f, 0, 0, 0x05, 0, 2, 1, 1, 3, 0, 0x02, 0, 0x08, 0})
	// Positional: merges of the pairs' absent partners, a round trip, a
	// removal of every file.
	f.Add([]byte{1, 4, 1, 1, 0, 1, 0, 0x01, 0, 1, 3, 1, 0, 4, 2, 5, 0, 1, 2, 3, 4, 5, 0, 0x0a, 0})
	// Terms around the pair members' bytes, grown past the initial table.
	f.Add([]byte{0, 0, 3, 3, 0xf0, 0xff, 0xff, 0x0f, 0x33, 0x33, 0xcc, 0xcc, 1, 15, 0, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		r := &dictOps{b: program}
		positional := r.next()%2 == 1
		ix := index.New(r.next())
		if positional {
			ix.SetPositional()
		}
		model := map[string][]postings.FileID{}
		next := postings.FileID(0) // every ID below it has been issued
		id := func() postings.FileID {
			v := postings.FileID(r.next()) % (next + 1)
			if v == next {
				next++
			}
			return v
		}
		add := func(dst *index.Builder, terms []string) {
			fresh := next
			next++
			ends, pos := make([]uint32, len(terms)), make([]uint32, len(terms))
			for i, term := range terms {
				ends[i], pos[i] = uint32(i+1), uint32(i)
				model[term] = union(model[term], fresh)
			}
			if positional {
				dst.AddBlockPositional(fresh, terms, ends, pos)
			} else {
				dst.AddBlock(fresh, terms, nil)
			}
		}
		for step := 0; r.i < len(r.b) && step < 64; step++ {
			var op string
			switch r.next() % 5 {
			case 0:
				op = "AddBlock"
				one := index.NewBuilder(positional)
				add(one, r.terms())
				ix.Join(one.Index())
			case 1:
				op = "MergeTerm"
				term := fuzzVocab[r.next()%len(fuzzVocab)]
				l := &postings.List{}
				for k := r.next()%4 + 1; k > 0; k-- {
					v := id()
					if positional {
						l.Merge(postings.FromSortedIDPositions([]postings.FileID{v}, [][]uint32{{0}}))
					} else {
						l.Add(v)
					}
					model[term] = union(model[term], v)
				}
				ix.MergeTerm(term, l)
			case 2:
				op = "RemoveFiles"
				var victims []postings.FileID
				for k := r.next()%6 + 1; k > 0; k-- {
					victims = append(victims, postings.FileID(r.next()))
				}
				want := 0
				for term, ids := range model {
					kept := ids[:0:0]
					for _, v := range ids {
						if slices.Contains(victims, v) {
							want++
						} else {
							kept = append(kept, v)
						}
					}
					if len(kept) == 0 {
						delete(model, term)
					} else {
						model[term] = kept
					}
				}
				if got := ix.RemoveFiles(postings.FromIDs(victims)); got != want {
					t.Fatalf("step %d: RemoveFiles removed %d postings, model %d", step, got, want)
				}
			case 3:
				op = "Join"
				other := index.NewBuilder(positional)
				for k := r.next()%4 + 1; k > 0; k-- {
					add(other, r.terms())
				}
				ix.Join(other.Index())
			default:
				op = "Write and Materialize"
				ix = roundTrip(t, ix)
			}
			absent := []string{"", "m5jttwrr", "zqqkcl"}
			for _, term := range fuzzVocab {
				if _, ok := model[term]; !ok {
					absent = append(absent, term)
				}
			}
			checkAgainstModel(t, fmt.Sprintf("step %d (%s)", step, op), ix, model, absent, positional)
		}
	})
}
