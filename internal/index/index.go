// Package index implements the inverted index of the desktop search engine:
// each partition filled by one owner's Builder, without locks, and merged
// into another index by "Join Forces" (Index.Join) where an update or a
// shard merge needs one.
//
// The index is a Go map from each term to a posting list of the files
// containing it. The paper's Section 3 decision is how it is filled: en
// bloc, one duplicate-free term block per file (Stage 2 eliminates the
// duplicates), so insertion needs no duplicate scan. A Builder logs the
// blocks and builds every posting list once, in file-ID order.
package index

import (
	"math/bits"
	"slices"
	"sort"

	"desksearch/internal/postings"
)

// FileTable maps FileIDs to file paths. Stage 1 builds it before extraction
// starts; batch builds never mutate it afterwards, so it is safely shared by
// all replicas and query threads. Incremental maintenance (internal/delta)
// does mutate it — registering new files and tombstoning deleted ones — and
// must do so under the search engine's maintenance lock.
//
// FileIDs are never reused: a deleted file keeps its slot as a tombstone
// (Live reports false) and a re-created path gets a fresh ID. That keeps
// every posting list ever written valid and makes removal idempotent.
type FileTable struct {
	paths  []string
	sizes  []int64
	mtimes []int64
	// tokens[id] is the file's token length (total emitted term
	// occurrences) — the document length BM25 normalizes by.
	tokens []uint32
	dead   []bool // tombstones; nil-safe via Live
	nDead  int
	byPath map[string]postings.FileID // live paths only
}

// NewFileTable returns an empty table.
func NewFileTable() *FileTable {
	return &FileTable{byPath: make(map[string]postings.FileID)}
}

// Add appends a live file and returns its ID. mtime is the modification
// time change detection compares, in Unix nanoseconds (core.FileRef.ModTime).
func (t *FileTable) Add(path string, size, mtime int64) postings.FileID {
	id := postings.FileID(len(t.paths))
	t.paths = append(t.paths, path)
	t.sizes = append(t.sizes, size)
	t.mtimes = append(t.mtimes, mtime)
	t.tokens = append(t.tokens, 0)
	t.dead = append(t.dead, false)
	t.byPath[path] = id
	return id
}

// Path returns the path for id.
func (t *FileTable) Path(id postings.FileID) string { return t.paths[id] }

// Size returns the recorded byte size for id.
func (t *FileTable) Size(id postings.FileID) int64 { return t.sizes[id] }

// ModTime returns the recorded modification stamp for id.
func (t *FileTable) ModTime(id postings.FileID) int64 { return t.mtimes[id] }

// SetMeta updates the recorded size and modification stamp for id, the
// bookkeeping half of re-indexing a modified file.
func (t *FileTable) SetMeta(id postings.FileID, size, mtime int64) {
	t.sizes[id] = size
	t.mtimes[id] = mtime
}

// SetTokens records id's token length (extract.TermBlock.Tokens).
// Concurrent extractors may call it for distinct IDs — each write lands in
// its own preallocated slot, so no lock is needed during a build.
func (t *FileTable) SetTokens(id postings.FileID, n uint32) {
	t.tokens[id] = n
}

// Tokens returns the recorded token length for id. It is 0 exactly for the
// files no partition holds a posting for — the term-free files, which a
// NOT query's complement must still find (search.Engine).
func (t *FileTable) Tokens(id postings.FileID) uint32 { return t.tokens[id] }

// LiveTokens sums the token lengths of all live files — the corpus size
// BM25's average document length derives from.
func (t *FileTable) LiveTokens() uint64 {
	var sum uint64
	for id, n := range t.tokens {
		if !t.dead[id] {
			sum += uint64(n)
		}
	}
	return sum
}

// Live reports whether id is a live file (not tombstoned).
func (t *FileTable) Live(id postings.FileID) bool { return !t.dead[id] }

// Tombstone marks id deleted, freeing its path for re-registration under a
// new ID. Tombstoning an already-dead ID is a no-op.
func (t *FileTable) Tombstone(id postings.FileID) {
	if t.dead[id] {
		return
	}
	t.dead[id] = true
	t.nDead++
	if cur, ok := t.byPath[t.paths[id]]; ok && cur == id {
		delete(t.byPath, t.paths[id])
	}
}

// Lookup returns the live file registered under path, if any. Tombstoned
// files are not found: a deleted-then-recreated path is a new file.
func (t *FileTable) Lookup(path string) (postings.FileID, bool) {
	id, ok := t.byPath[path]
	return id, ok
}

// Len returns the number of table slots, tombstones included — the
// exclusive upper bound of every FileID ever issued.
func (t *FileTable) Len() int { return len(t.paths) }

// LiveCount returns the number of live (non-tombstoned) files.
func (t *FileTable) LiveCount() int { return len(t.paths) - t.nDead }

// Paths returns all paths indexed by FileID, tombstoned slots included.
// Callers must not modify the returned slice.
func (t *FileTable) Paths() []string { return t.paths }

// Index is an inverted index: a map from term to posting list, built from
// duplicate-free term blocks by a Builder. It is not safe for concurrent
// mutation: every partition has one owner.
//
// Beside the map it keeps, through every mutator, the dictionary order —
// keys ascending and each term's list parallel to them, so a walk costs
// no hash lookup and takes no lock — and the set of files it holds.
type Index struct {
	terms map[string]*postings.List
	keys  []string
	lists []*postings.List
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
	return &Index{terms: make(map[string]*postings.List, capacity)}
}

// NewOrdered returns the index of terms, strictly ascending, and the
// non-empty lists of slab parallel to them, which hold postings for
// exactly the files docs lists. It takes terms as its dictionary order and
// slab's elements as its lists; the caller must use neither afterwards.
// Builder.Index and a segment's Materialize build indices this way.
func NewOrdered(terms []string, slab []postings.List, docs []postings.FileID, positional bool) *Index {
	ix := &Index{
		terms:      make(map[string]*postings.List, len(terms)),
		keys:       terms,
		lists:      make([]*postings.List, len(slab)),
		positional: positional,
	}
	for i := range slab {
		l := &slab[i]
		ix.terms[terms[i]] = l
		ix.lists[i] = l
		ix.nPostings += int64(l.Len())
	}
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
func (ix *Index) Lookup(term string) *postings.List { return ix.terms[term] }

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
// Terms and TermsFrom, so the walk is deterministic across runs. The
// index must not be mutated during Range.
func (ix *Index) Range(f func(term string, l *postings.List) bool) {
	for i, term := range ix.keys {
		if !f(term, ix.lists[i]) {
			return
		}
	}
}

// Window emits every occurrence, at a position in [lo[i], hi[i]], of any
// term in file files[i] (see Partition). It walks the lists in dictionary
// order, not the map, and lets each list skip itself
// (postings.List.Window): a list whose IDs miss the files' range costs
// two comparisons.
func (ix *Index) Window(files []postings.FileID, lo, hi []uint32, emit func(i int, term string, pos uint32)) {
	for t, l := range ix.lists {
		term := ix.keys[t]
		l.Window(files, lo, hi, func(i int, pos uint32) { emit(i, term, pos) })
	}
}

// TermsFrom calls yield for every term >= from in ascending order with its
// document frequency, until yield returns false — the dictionary-range
// primitive of the Partition interface. The seek is a binary search over
// the ascending keys.
func (ix *Index) TermsFrom(from string, yield func(term string, df int) bool) {
	for i := sort.SearchStrings(ix.keys, from); i < len(ix.keys); i++ {
		if !yield(ix.keys[i], ix.lists[i].Len()) {
			return
		}
	}
}

// Terms appends all terms to dst in ascending order and returns it.
func (ix *Index) Terms(dst []string) []string { return append(dst, ix.keys...) }

// Docs returns a fresh copy of the set of files this index holds postings
// for, as a pure-ID list (term frequencies are never copied — NOT
// evaluation, the consumer, reads only IDs). The index keeps the set
// through every mutator, so Docs reads no posting.
func (ix *Index) Docs() *postings.List { return ix.docs.list() }

// termOverhead is what one term costs the index beside its posting
// storage and its string's bytes: its postings.List header (72 B, in the
// slab Builder.Index or Materialize allocates), its slots in the two
// dictionary-order slices (a string header and a list pointer, 24 B) and
// its map slot (the same 24 B, about 40 at the map's average load).
const termOverhead = 72 + 24 + 40

// ResidentBytes estimates the index's heap footprint: per term, its
// string's bytes, termOverhead and what its list reports of its own
// storage (postings.List.HeapBytes), and the document set's bitmap. An
// observability estimate, not an allocator measurement.
func (ix *Index) ResidentBytes() int64 {
	b := 8 * int64(cap(ix.docs))
	for i, term := range ix.keys {
		b += int64(len(term)) + termOverhead + ix.lists[i].HeapBytes()
	}
	return b
}

// Join destructively merges other into ix ("Join Forces"): every posting
// list of other is united with ix's, and ix adopts the lists of terms it
// lacks, merged into its dictionary order in one pass. Their headers are
// copied into a slab of ix's own, so they do not keep alive other's slab,
// mostly headers of lists merged away. other must not be used afterwards.
func (ix *Index) Join(other *Index) {
	if other == nil {
		return
	}
	ix.positional = ix.positional || other.positional
	ix.docs.union(other.docs)
	fresh := 0
	for i, term := range other.keys {
		l := other.lists[i]
		if existing, ok := ix.terms[term]; ok {
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
		l := &slab[len(slab)-1]
		ix.terms[term] = l
		keys, lists, at = append(keys, term), append(lists, l), next
	}
	ix.keys, ix.lists = append(keys, ix.keys[at:]...), append(lists, ix.lists[at:]...)
}

// MergeTerm unions l into term's posting list and takes l: a term the
// index lacks adopts l as its list, inserted at its place in the
// dictionary order, and the caller must not use l afterwards. Sharding
// uses MergeTerm to route a whole posting sublist between indices in one
// merge, where re-adding each file's block would cost a term lookup per
// posting; fed in ascending term order, each insert is an append.
func (ix *Index) MergeTerm(term string, l *postings.List) {
	if l == nil || l.Len() == 0 {
		return
	}
	ix.docs.add(l.IDs())
	existing, ok := ix.terms[term]
	if !ok {
		ix.terms[term] = l
		ix.nPostings += int64(l.Len())
		i, _ := slices.BinarySearch(ix.keys, term)
		ix.keys = slices.Insert(ix.keys, i, term)
		ix.lists = slices.Insert(ix.lists, i, l)
		return
	}
	before := existing.Len()
	existing.Merge(l)
	ix.nPostings += int64(existing.Len() - before)
}

// Equal reports whether two indices contain identical term→postings maps.
func (ix *Index) Equal(other *Index) bool {
	if ix.NumTerms() != other.NumTerms() {
		return false
	}
	for term, l := range ix.terms {
		ol, ok := other.terms[term]
		if !ok || !l.Equal(ol) {
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
