package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// positionalVocabIndex builds a positional index over vocab, which must
// ascend strictly: term i is in the files vocabIndex puts it in, at
// positions i and i+100 in every other one of them.
func positionalVocabIndex(vocab []string) *index.Index {
	var terms [16][]string
	var ends, pos [16][]uint32
	for i, term := range vocab {
		for k := range vocabDF(i) {
			f := (i + 3*k) % len(terms)
			pos[f] = append(pos[f], uint32(i))
			if k%2 == 1 {
				pos[f] = append(pos[f], uint32(i+100))
			}
			terms[f] = append(terms[f], term)
			ends[f] = append(ends[f], uint32(len(pos[f])))
		}
	}
	b := index.NewBuilder(true)
	for f := range terms {
		b.AddBlockPositional(postings.FileID(f), terms[f], ends[f], pos[f])
	}
	return b.Index()
}

// drain returns what it yields, ID and count, or nil for a nil iterator.
func drain(it index.PostingIterator) []uint64 {
	if it == nil {
		return nil
	}
	out := []uint64{}
	for it.Next() {
		out = append(out, uint64(it.ID())<<32|uint64(it.Count()))
	}
	return out
}

// TestRestartBoundaries holds an opened segment's reads to the heap index
// it was written from, on vocabularies that end at, just before and just
// after restart boundaries, and on one where runs of terms share their
// first 8 bytes — the packed restart key — across several boundaries, so
// the lookup's whole-term tie-break decides. Every term, every proper
// prefix of one, each term followed by a zero byte, "" and a probe past
// the last term go through DocFreq, TermsFrom, Counts, Lookup and
// Iterator, and Window's pass over every entry emits what the heap's does.
func TestRestartBoundaries(t *testing.T) {
	vocabs := map[string][]string{}
	for _, n := range []int{1, 7, 8, 9, 16, 17} {
		vocabs[fmt.Sprint(n)] = randomVocab(n, int64(n))
	}
	tie := []string{"a", "abcdefg", "abcdefg\x00", "abcdefg\x00\x00", "abcdefgh", "abcdefgi", "b"}
	for i := range 26 {
		tie = append(tie, "abcdefgh"+strings.Repeat("x", i%3)+string(rune('a'+i)))
	}
	slices.Sort(tie)
	vocabs["shared prefixes"] = slices.Compact(tie)

	for name, vocab := range vocabs {
		t.Run(name, func(t *testing.T) {
			ix := positionalVocabIndex(vocab)
			var img bytes.Buffer
			if err := Write(&img, ix); err != nil {
				t.Fatal(err)
			}
			r, err := OpenBytes(name, img.Bytes(), nil)
			if err != nil {
				t.Fatal(err)
			}
			probes := []string{"", vocab[len(vocab)-1] + "\x00", "\xff"}
			for _, term := range vocab {
				probes = append(probes, term, term+"\x00")
				for k := range len(term) {
					probes = append(probes, term[:k])
				}
			}
			terms := func(p index.Partition, from string) []string {
				var out []string
				p.TermsFrom(from, func(term string, df int) bool {
					out = append(out, fmt.Sprintf("%q:%d", term, df))
					return true
				})
				return out
			}
			for _, p := range probes {
				if got, want := r.DocFreq(p), ix.DocFreq(p); got != want {
					t.Fatalf("DocFreq(%q) = %d, want %d", p, got, want)
				}
				if got, want := terms(r, p), terms(ix, p); !slices.Equal(got, want) {
					t.Fatalf("TermsFrom(%q) = %v, want %v", p, got, want)
				}
				if got, want := r.Counts(p), ix.Counts(p); (got == nil) != (want == nil) || want != nil && !countsEqual(got, want) {
					t.Fatalf("Counts(%q) = %v, want %v", p, got, want)
				}
				if got, want := r.Lookup(p), ix.Lookup(p); !listsEqual(got, want) {
					t.Fatalf("Lookup(%q) = %v, want %v", p, got, want)
				}
				if got, want := drain(r.Iterator(p)), drain(ix.Iterator(p)); !slices.Equal(got, want) {
					t.Fatalf("Iterator(%q) yields %v, want %v", p, got, want)
				}
			}
			var files []postings.FileID
			var lo, hi []uint32
			for f := range 16 {
				files, lo, hi = append(files, postings.FileID(f)), append(lo, 0), append(hi, math.MaxUint32)
			}
			window := func(p index.Partition) []string {
				var out []string
				p.Window(files, lo, hi, func(i int, term string, pos uint32) {
					out = append(out, fmt.Sprintf("%d:%q:%d", i, term, pos))
				})
				return out
			}
			if got, want := window(r), window(ix); !slices.Equal(got, want) {
				t.Fatalf("Window emitted %v, want %v", got, want)
			}
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
		})
	}
}

// rawEntry is one dictionary entry as Write encodes it.
type rawEntry struct {
	term          string
	df, blockLen  uint64
	blockChecksum uint32
}

// splitSegment parses a segment image Write made into its flags, the
// dictionary ahead of the entries (document set, block-region length and
// term count), the entries and the block region.
func splitSegment(t *testing.T, img []byte) (flags byte, head []byte, ents []rawEntry, blocks []byte) {
	t.Helper()
	flags = img[index.HeaderLen-1]
	dictLen := binary.LittleEndian.Uint64(img[index.HeaderLen:])
	dict := img[headerLen : headerLen+dictLen]
	c := index.NewCursor(dict)
	c.IDs()
	c.Uvarint()
	n := c.Count("term", minEntryLen)
	head = dict[:len(dict)-c.Left()]
	for range n {
		ents = append(ents, rawEntry{c.Str(), c.Uvarint(), c.Uvarint(), c.U32()})
	}
	if c.Err() != nil || c.Left() != 0 {
		t.Fatalf("unparseable segment: %v, %d bytes left", c.Err(), c.Left())
	}
	return flags, head, ents, img[headerLen+dictLen+4:]
}

// encodeDict encodes ents after head: a dictionary region whose
// checksum segmentImage seals over whatever it now holds.
func encodeDict(head []byte, ents []rawEntry) []byte {
	dict := bytes.Clone(head)
	for _, e := range ents {
		dict = index.AppendString(dict, e.term)
		dict = binary.AppendUvarint(dict, e.df)
		dict = binary.AppendUvarint(dict, e.blockLen)
		dict = binary.LittleEndian.AppendUint32(dict, e.blockChecksum)
	}
	return dict
}

// TestOpenChecksEveryEntry edits a saved segment's dictionary behind a
// resealed checksum, one way at a time, and holds Open to refusing each
// with its own message: the walk that builds the restart index makes
// every structural check on every entry, not only on the restarts.
func TestOpenChecksEveryEntry(t *testing.T) {
	var img bytes.Buffer
	if err := Write(&img, buildIndex(t, 60, true)); err != nil {
		t.Fatal(err)
	}
	flags, head, ents, blocks := splitSegment(t, img.Bytes())
	if r, err := OpenBytes("resealed", segmentImage(flags, encodeDict(head, ents), blocks), nil); err != nil || r.NumTerms() != len(ents) {
		t.Fatalf("the unedited dictionary, resealed, does not open: %v", err)
	}
	// Edit entries between restarts, in the second restart group.
	mid := restartEvery + 3
	if len(ents) <= mid+1 {
		t.Fatalf("%d terms: too few to edit between restarts", len(ents))
	}
	edited := func(edit func(e []rawEntry)) []byte {
		e := slices.Clone(ents)
		edit(e)
		return encodeDict(head, e)
	}
	cases := []struct {
		name, want string
		dict       []byte
	}{
		{"two adjacent terms swapped", "out of order", edited(func(e []rawEntry) {
			e[mid].term, e[mid+1].term = e[mid+1].term, e[mid].term
		})},
		{"a df of 0", "absurd document frequency 0", edited(func(e []rawEntry) { e[mid].df = 0 })},
		{"a block length past the region", "block overruns region", edited(func(e []rawEntry) {
			e[mid].blockLen = uint64(len(blocks)) + 1
		})},
		{"one trailing byte", "1 trailing dictionary bytes", append(encodeDict(head, ents), 0)},
	}
	seen := map[string]string{}
	for _, c := range cases {
		_, err := OpenBytes("edited", segmentImage(flags, c.dict, blocks), nil)
		if err == nil {
			t.Fatalf("%s: Open accepted the dictionary", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Open said %q, want it to say %q", c.name, err, c.want)
		}
		if other, ok := seen[err.Error()]; ok {
			t.Fatalf("%s and %s are refused with one message, %q", c.name, other, err)
		}
		seen[err.Error()] = c.name
	}
}
