// Package index implements the inverted index of the desktop search engine
// and the paper's three interaction disciplines with it: exclusive
// single-threaded updates, lock-guarded shared updates (Implementation 1),
// and replica indices merged by "Join Forces" (Implementations 2 and 3).
//
// The index is a Go map from each term to a posting list of the files
// containing it. The paper's Section 3 decision is how it is filled: en
// bloc, one duplicate-free term block per file (Stage 2 eliminates the
// duplicates), so insertion needs no duplicate scan.
package index

import (
	"sort"
	"sync"

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
// stamp change detection compares (vfs.DirEntry.ModTime).
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

// Tokens returns the recorded token length for id.
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

// LiveIDs appends the IDs of all live files to dst in ascending order and
// returns it — the universe a NOT query complements against.
func (t *FileTable) LiveIDs(dst []postings.FileID) []postings.FileID {
	for id := range t.paths {
		if !t.dead[id] {
			dst = append(dst, postings.FileID(id))
		}
	}
	return dst
}

// Paths returns all paths indexed by FileID, tombstoned slots included.
// Callers must not modify the returned slice.
func (t *FileTable) Paths() []string { return t.paths }

// Index is an inverted index: a map from term to posting list, filled one
// duplicate-free term block at a time. It is not safe for concurrent
// mutation; use Shared for Implementation 1, or one Index per updater for
// Implementations 2 and 3.
type Index struct {
	terms map[string]*postings.List
	// nPostings counts (term, file) pairs for Stats.
	nPostings int64
	// positional records that this index was built (or loaded) with
	// per-posting token positions. It decides which posting-list encoding
	// the codec writes (a flags bit — see docs/FORMAT.md) and whether
	// incremental updates re-extract changed files positionally.
	positional bool

	// sortMu guards the lazily built sorted dictionary cache backing
	// Range/Window/Terms/TermsFrom: the ascending term list plus, parallel to
	// it, each term's posting-list pointer — so a dictionary walk costs
	// no per-term hash lookup. Concurrent readers may race to build it
	// (the engine's read lock admits many queries at once); mutators
	// that change the term set, or swap a term's list pointer
	// (RemoveFiles), drop it. nil sorted means stale.
	sortMu      sync.Mutex
	sorted      []string
	sortedLists []*postings.List
}

// New returns an empty index sized for about capacity terms.
func New(capacity int) *Index {
	return &Index{terms: make(map[string]*postings.List, capacity)}
}

// list returns term's posting list, inserting an empty one if it is absent.
func (ix *Index) list(term string) *postings.List {
	l, ok := ix.terms[term]
	if !ok {
		l = &postings.List{}
		ix.terms[term] = l
	}
	return l
}

// AddBlock inserts a file's duplicate-free term block. This is the en-bloc
// insertion path the paper chose: one call per file, no per-posting
// duplicate checks (each file is scanned exactly once). counts, when
// non-nil, carries the per-term occurrence frequency parallel to terms
// (extract.TermBlock.Counts); nil records every term with frequency 1.
func (ix *Index) AddBlock(id postings.FileID, terms []string, counts []uint32) {
	defer ix.invalidateSortedOnGrowth(len(ix.terms))
	for i, term := range terms {
		l := ix.list(term)
		if counts == nil {
			l.Add(id)
		} else {
			l.AddN(id, counts[i])
		}
	}
	ix.nPostings += int64(len(terms))
}

// AddBlockPositional inserts a file's duplicate-free term block with the
// per-term occurrence positions extracted alongside it
// (extract.TermBlock.Positions): positions[i] lists the ascending token
// positions of terms[i] in the file, and the per-posting frequency is
// derived from it, so TF ranking needs no separate count. Marks the index
// positional.
func (ix *Index) AddBlockPositional(id postings.FileID, terms []string, positions [][]uint32) {
	defer ix.invalidateSortedOnGrowth(len(ix.terms))
	ix.positional = true
	for i, term := range terms {
		ix.list(term).AddPositions(id, positions[i])
	}
	ix.nPostings += int64(len(terms))
}

// Positional reports whether the index carries per-posting token positions
// (phrase queries need them; the codec persists the fact in a flags bit).
func (ix *Index) Positional() bool { return ix.positional }

// SetPositional marks a (typically fresh) index as positional, so an empty
// positional build still persists as a positional catalog and keeps
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
func (ix *Index) NumTerms() int { return len(ix.terms) }

// NumPostings returns the number of (term, file) pairs.
func (ix *Index) NumPostings() int64 { return ix.nPostings }

// invalidateSortedOnGrowth drops the sorted-term cache if the term count
// no longer matches before — the count captured when a mutator started.
// Mutators that only rewrite posting lists of existing terms keep the
// cache; ones that add or drop terms invalidate it.
func (ix *Index) invalidateSortedOnGrowth(before int) {
	if len(ix.terms) == before {
		return
	}
	ix.invalidateSorted()
}

// invalidateSorted drops the sorted dictionary cache unconditionally.
func (ix *Index) invalidateSorted() {
	ix.sortMu.Lock()
	ix.sorted, ix.sortedLists = nil, nil
	ix.sortMu.Unlock()
}

// sortedDict returns the ascending term list and, parallel to it, each
// term's posting-list pointer, building both on first use after an
// invalidation. List pointers are stable between invalidations (in-place
// mutators keep them; RemoveFiles, the one mutator that swaps a list,
// invalidates), so iterating the pair avoids a hash lookup per term —
// the cost that dominates full-dictionary scans. Safe for concurrent
// readers; callers must not modify the returned slices.
func (ix *Index) sortedDict() ([]string, []*postings.List) {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sorted == nil {
		keys := make([]string, 0, len(ix.terms))
		for term := range ix.terms {
			keys = append(keys, term)
		}
		sort.Strings(keys)
		lists := make([]*postings.List, len(keys))
		for i, term := range keys {
			lists[i] = ix.terms[term]
		}
		ix.sorted, ix.sortedLists = keys, lists
	}
	return ix.sorted, ix.sortedLists
}

// Range calls f for every (term, postings) pair in ascending term order
// until f returns false — the whole-index walk sharding copies lists by.
// Sorted order is a documented guarantee, as for Terms and TermsFrom, so
// the walk is deterministic across runs. The index must not gain or lose
// terms during Range.
func (ix *Index) Range(f func(term string, l *postings.List) bool) {
	terms, lists := ix.sortedDict()
	for i, term := range terms {
		if !f(term, lists[i]) {
			return
		}
	}
}

// Window emits every occurrence, at a position in [lo[i], hi[i]], of any
// term in file files[i] (see Partition). It walks the sorted dictionary's
// parallel slices, not the map, and lets each list skip itself
// (postings.List.Window): a list whose IDs miss the files' range costs
// two comparisons.
func (ix *Index) Window(files []postings.FileID, lo, hi []uint32, emit func(i int, term string, pos uint32)) {
	terms, lists := ix.sortedDict()
	for t, l := range lists {
		term := terms[t]
		l.Window(files, lo, hi, func(i int, pos uint32) { emit(i, term, pos) })
	}
}

// TermsFrom calls yield for every term >= from in ascending order with its
// document frequency, until yield returns false — the dictionary-range
// primitive of the Partition interface. The seek is a binary search over
// the sorted term cache.
func (ix *Index) TermsFrom(from string, yield func(term string, df int) bool) {
	terms, lists := ix.sortedDict()
	i := sort.SearchStrings(terms, from)
	for ; i < len(terms); i++ {
		if !yield(terms[i], lists[i].Len()) {
			return
		}
	}
}

// Terms appends all terms to dst in ascending order and returns it.
func (ix *Index) Terms(dst []string) []string {
	terms, _ := ix.sortedDict()
	return append(dst, terms...)
}

// Docs returns the set of files this index holds postings for, as a fresh
// pure-ID list (term frequencies are never copied — NOT evaluation, the
// consumer, reads only IDs).
func (ix *Index) Docs() *postings.List {
	u := &postings.List{}
	for _, l := range ix.terms {
		u.Merge(postings.FromSortedIDs(l.IDs()))
	}
	return u
}

// ResidentBytes estimates the index's heap footprint: per-term map-entry
// and string bytes plus posting and position storage. An observability
// estimate, not an allocator measurement.
func (ix *Index) ResidentBytes() int64 {
	var b int64
	for term, l := range ix.terms {
		b += int64(len(term)) + 48 // entry, header, list overheads
		b += int64(l.Len()) * 8    // id + count columns
		if l.HasPositions() {
			for i := 0; i < l.Len(); i++ {
				b += int64(len(l.PositionsAt(i))) * 4
			}
		}
	}
	return b
}

// Join destructively merges other into ix ("Join Forces"): every posting
// list of other is united with ix's. other must not be used afterwards.
func (ix *Index) Join(other *Index) {
	if other == nil {
		return
	}
	defer ix.invalidateSortedOnGrowth(len(ix.terms))
	ix.positional = ix.positional || other.positional
	for term, l := range other.terms {
		existing, ok := ix.terms[term]
		if !ok {
			ix.terms[term] = l
			ix.nPostings += int64(l.Len())
			continue
		}
		before := existing.Len()
		existing.Merge(l)
		ix.nPostings += int64(existing.Len() - before)
	}
}

// MergeTerm unions l into term's posting list, creating the term if absent.
// l is read but not retained, so callers may keep using it. Sharding uses
// MergeTerm to route a whole posting sublist between indices in one merge,
// where per-file AddBlock calls would cost a term lookup per posting.
func (ix *Index) MergeTerm(term string, l *postings.List) {
	if l == nil || l.Len() == 0 {
		return
	}
	defer ix.invalidateSortedOnGrowth(len(ix.terms))
	existing := ix.list(term)
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

// Shared wraps an Index with a mutex: the paper's Implementation 1 ("use a
// single shared index and lock it on update"). Every updater thread calls
// AddBlock; the lock is held for the whole en-bloc insertion, which is the
// coarse-grained critical section whose contention the paper measures.
type Shared struct {
	mu sync.Mutex
	ix *Index
}

// NewShared returns a locked wrapper around a fresh index.
func NewShared(capacity int) *Shared { return &Shared{ix: New(capacity)} }

// AddBlock inserts a term block under the lock.
func (s *Shared) AddBlock(id postings.FileID, terms []string, counts []uint32) {
	s.mu.Lock()
	s.ix.AddBlock(id, terms, counts)
	s.mu.Unlock()
}

// AddBlockPositional inserts a positional term block under the lock.
func (s *Shared) AddBlockPositional(id postings.FileID, terms []string, positions [][]uint32) {
	s.mu.Lock()
	s.ix.AddBlockPositional(id, terms, positions)
	s.mu.Unlock()
}

// Unwrap returns the underlying index. Call only after all updaters have
// finished (the pipeline's barrier guarantees this).
func (s *Shared) Unwrap() *Index { return s.ix }
