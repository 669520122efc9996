// Package index implements the inverted index of the desktop search engine:
// each partition filled by one owner's Builder, without locks, and merged
// into another index by "Join Forces" (Index.Join) where an update or a
// shard merge needs one.
//
// The index maps each term to a posting list of the files containing it:
// the terms ascending in one slice, their lists in another parallel to it,
// and an open-addressing table keyed by the terms' FNV-1 hashes, as the
// paper's term tables are, that finds a term's place in them. The paper's
// Section 3 decision is how it is filled: en bloc, one duplicate-free term
// block per file (Stage 2 eliminates the duplicates), so insertion needs
// no duplicate scan. A Builder logs the blocks, interning their terms
// through a table of the same kind, and builds every posting list once, in
// file-ID order.
package index

import (
	"math/bits"
	"slices"
	"sort"

	"desksearch/internal/postings"
)

// Index is an inverted index from term to posting list, built from
// duplicate-free term blocks by a Builder. It is not safe for concurrent
// mutation: every partition has one owner.
//
// It keeps, through every mutator, the dictionary order — keys ascending
// and each term's list parallel to them, so a walk costs no hash lookup
// and takes no lock — a table from each term to its place in that order,
// and the set of files it holds.
type Index struct {
	keys  []string
	lists []*postings.List
	table termTable // term → its index in keys and lists
	docs  docSet
	// nPostings counts (term, file) pairs for Stats.
	nPostings int64
	// positional records that this index was built (or loaded) with
	// per-posting token positions. It decides which posting-list encoding
	// the codec writes (a flags bit — see docs/FORMAT.md) and whether
	// incremental updates re-extract changed files positionally.
	positional bool
}

// New returns an empty index sized for about capacity terms.
func New(capacity int) *Index {
	ix := &Index{}
	if capacity > 0 {
		ix.table.slots = make([]termSlot, slotsFor(capacity))
	}
	return ix
}

// NewOrdered returns the index of terms, strictly ascending, and the
// non-empty lists of slab parallel to them, which hold postings for
// exactly the files docs lists. It takes terms as its dictionary order and
// slab's elements as its lists; the caller must use neither afterwards.
// Builder.Index and a segment's Materialize build indices this way.
func NewOrdered(terms []string, slab []postings.List, docs []postings.FileID, positional bool) *Index {
	ix := &Index{
		keys:       terms,
		lists:      make([]*postings.List, len(slab)),
		positional: positional,
	}
	for i := range slab {
		ix.lists[i] = &slab[i]
		ix.nPostings += int64(slab[i].Len())
	}
	ix.table.build(terms)
	ix.docs.add(docs)
	return ix
}

// Positional reports whether the index carries per-posting token positions
// (phrase queries need them; the codec persists the fact in a flags bit).
func (ix *Index) Positional() bool { return ix.positional }

// SetPositional marks a (typically fresh) index as positional, so an empty
// positional partition still persists as a positional catalog and keeps
// re-extracting positionally through incremental updates.
func (ix *Index) SetPositional() { ix.positional = true }

// Lookup returns the posting list for term, or nil if absent. The returned
// list is the index's own storage; callers must not modify it.
func (ix *Index) Lookup(term string) *postings.List {
	if i := ix.find(term); i >= 0 {
		return ix.lists[i]
	}
	return nil
}

// find returns term's index in keys and lists, or -1 if it is absent.
func (ix *Index) find(term string) int { return ix.table.find(ix.keys, term, hashTerm(term)) }

// Counts is Lookup: the heap holds one list per term and hands it out
// whatever the caller reads of it.
func (ix *Index) Counts(term string) *postings.List { return ix.Lookup(term) }

// Iterator returns a streaming cursor over term's in-memory posting
// list, or nil if the term is absent. The cursor reads the index's own
// storage: valid only while the index is unmutated (the engine's read
// lock guarantees that for query evaluation).
func (ix *Index) Iterator(term string) PostingIterator {
	l := ix.Lookup(term)
	if l == nil {
		return nil
	}
	return postings.NewIterator(l)
}

// DocFreq returns term's document frequency (its posting-list length), or
// 0 if the term is absent.
func (ix *Index) DocFreq(term string) int {
	if l := ix.Lookup(term); l != nil {
		return l.Len()
	}
	return 0
}

// NumTerms returns the number of distinct terms.
func (ix *Index) NumTerms() int { return len(ix.keys) }

// NumPostings returns the number of (term, file) pairs.
func (ix *Index) NumPostings() int64 { return ix.nPostings }

// Range calls f for every (term, postings) pair in ascending term order
// until f returns false — the whole-index walk sharding and the segment
// writer copy lists by. Sorted order is a documented guarantee, as for
// TermsFrom, so the walk is deterministic across runs. The index must not
// be mutated during Range.
func (ix *Index) Range(f func(term string, l *postings.List) bool) {
	for i, term := range ix.keys {
		if !f(term, ix.lists[i]) {
			return
		}
	}
}

// Window emits every occurrence, at a position in [lo[i], hi[i]], of any
// term in file files[i] (see Partition). It walks the lists in dictionary
// order and lets each list skip itself (postings.List.Window): a list
// whose IDs miss the files' range costs two comparisons.
func (ix *Index) Window(files []postings.FileID, lo, hi []uint32, emit func(i int, term string, pos uint32)) {
	for t, l := range ix.lists {
		term := ix.keys[t]
		l.Window(files, lo, hi, func(i int, pos uint32) { emit(i, term, pos) })
	}
}

// TermsFrom returns a cursor over every term >= from in ascending order
// with its document frequency — the dictionary walk of the Partition
// interface. The seek is a binary search over the ascending keys.
func (ix *Index) TermsFrom(from string) TermWalk {
	i := sort.SearchStrings(ix.keys, from)
	return &termCursor{keys: ix.keys[i:], lists: ix.lists[i:]}
}

// termCursor is the heap index's TermWalk: the terms left and their lists.
type termCursor struct {
	keys  []string
	lists []*postings.List
}

func (c *termCursor) Next() (string, int, bool) {
	if len(c.keys) == 0 {
		return "", 0, false
	}
	term, l := c.keys[0], c.lists[0]
	c.keys, c.lists = c.keys[1:], c.lists[1:]
	return term, l.Len(), true
}

// Docs returns a fresh copy of the set of files this index holds postings
// for, as a pure-ID list (term frequencies are never copied — NOT
// evaluation, the consumer, reads only IDs). The index keeps the set
// through every mutator, so Docs reads no posting.
func (ix *Index) Docs() *postings.List { return ix.docs.list() }

// termOverhead is what one term costs the index beside its posting
// storage, its string's bytes and the term table: its postings.List
// header (72 B, in the slab Builder.Index or Materialize allocates) and
// its slots in the two dictionary-order slices (a string header and a
// list pointer, 24 B).
const termOverhead = 72 + 24

// ResidentBytes estimates the index's heap footprint: per term, its
// string's bytes, termOverhead and what its list reports of its own
// storage (postings.List.HeapBytes), the term table's array and the
// document set's bitmap. An observability estimate, not an allocator
// measurement.
func (ix *Index) ResidentBytes() int64 {
	b := 8*int64(cap(ix.docs)) + ix.table.heapBytes()
	for i, term := range ix.keys {
		b += int64(len(term)) + termOverhead + ix.lists[i].HeapBytes()
	}
	return b
}

// Join destructively merges other into ix ("Join Forces"): every posting
// list of other is united with ix's, and ix adopts the lists of terms it
// lacks, merged into its dictionary order in one pass. Their headers are
// copied into a slab of ix's own, so they do not keep alive other's slab,
// mostly headers of lists merged away. A join that adds terms rebuilds the
// term table over the merged order. other must not be used afterwards.
func (ix *Index) Join(other *Index) {
	if other == nil {
		return
	}
	ix.positional = ix.positional || other.positional
	ix.docs.union(other.docs)
	fresh := 0
	for i, term := range other.keys {
		l := other.lists[i]
		if k := ix.find(term); k >= 0 {
			existing := ix.lists[k]
			before := existing.Len()
			existing.Merge(l)
			ix.nPostings += int64(existing.Len() - before)
			other.lists[i] = nil // merged: not a new term
			continue
		}
		ix.nPostings += int64(l.Len())
		fresh++
	}
	if fresh == 0 {
		return
	}
	keys := make([]string, 0, len(ix.keys)+fresh)
	lists := make([]*postings.List, 0, cap(keys))
	slab := make([]postings.List, 0, fresh)
	at := 0 // ix's terms before at are in keys
	for j, term := range other.keys {
		if other.lists[j] == nil {
			continue
		}
		next := at + sort.SearchStrings(ix.keys[at:], term)
		keys, lists = append(keys, ix.keys[at:next]...), append(lists, ix.lists[at:next]...)
		slab = append(slab, *other.lists[j])
		keys, lists, at = append(keys, term), append(lists, &slab[len(slab)-1]), next
	}
	ix.keys, ix.lists = append(keys, ix.keys[at:]...), append(lists, ix.lists[at:]...)
	ix.table.build(ix.keys)
}

// MergeTerm unions l into term's posting list and takes l: a term the
// index lacks adopts l as its list, inserted at its place in the
// dictionary order, and the caller must not use l afterwards. Sharding
// uses MergeTerm to route a whole posting sublist between indices in one
// merge, where re-adding each file's block would cost a term lookup per
// posting; fed in ascending term order, each insert is an append and one
// table insert, where an insert before the last term shifts the order and
// rebuilds the table.
func (ix *Index) MergeTerm(term string, l *postings.List) {
	if l == nil || l.Len() == 0 {
		return
	}
	ix.docs.add(l.IDs())
	h := hashTerm(term)
	k := ix.table.find(ix.keys, term, h)
	if k < 0 {
		ix.nPostings += int64(l.Len())
		i, _ := slices.BinarySearch(ix.keys, term)
		ix.keys = slices.Insert(ix.keys, i, term)
		ix.lists = slices.Insert(ix.lists, i, l)
		if i == len(ix.keys)-1 {
			ix.table.insert(h, i)
		} else {
			ix.table.build(ix.keys)
		}
		return
	}
	existing := ix.lists[k]
	before := existing.Len()
	existing.Merge(l)
	ix.nPostings += int64(existing.Len() - before)
}

// Equal reports whether two indices hold the same terms with identical
// posting lists, walking both dictionaries in order.
func (ix *Index) Equal(other *Index) bool {
	if ix.NumTerms() != other.NumTerms() {
		return false
	}
	for i, term := range ix.keys {
		if other.keys[i] != term || !ix.lists[i].Equal(other.lists[i]) {
			return false
		}
	}
	return true
}

// docSet is the set of files an index holds postings for: a bitmap with a
// bit per FileID from 0 to the largest member.
type docSet []uint64

// add puts ids, in any order, in the set.
func (s *docSet) add(ids []postings.FileID) {
	for _, id := range ids {
		if n := int(id/64) + 1; n > len(*s) {
			*s = append(*s, make(docSet, n-len(*s))...)
		}
		(*s)[id/64] |= 1 << (id % 64)
	}
}

// union puts every member of o in the set.
func (s *docSet) union(o docSet) {
	if len(o) > len(*s) {
		*s = append(*s, make(docSet, len(o)-len(*s))...)
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

// list returns the members as a fresh ascending pure-ID list.
func (s docSet) list() *postings.List {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	ids := make([]postings.FileID, 0, n)
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, postings.FileID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return postings.FromColumns(ids, nil, nil)
}
