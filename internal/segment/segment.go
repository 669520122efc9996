// Package segment implements the DSIX v11 lazy segment (kind 1): an
// on-disk posting layout a server can open and query without materializing
// it.
//
// A segment file holds one document partition of a catalog. Where a frame
// is a stream the reader must verify in full before answering anything, a
// segment separates a small, eagerly verified term dictionary from the
// posting blocks it points into:
//
//	magic "DSIX" | u16 version = 11 | u8 kind = 1 | u8 flags | u64 dictLen
//	dictionary region (dictLen bytes):
//	    doc-ID set: uvarint docCount | docCount delta-coded doc IDs
//	    uvarint blocksLen
//	    uvarint termCount
//	    termCount × { string term (strictly ascending) | uvarint df |
//	                  uvarint blockLen | u32 blockSum }
//	u32 dictSum — over everything from offset 0 through the dictionary
//	posting-block region (blocksLen bytes): termCount blocks, contiguous,
//	    in term order — term i's offset is the sum of the blockLens before it
//
// The DSIX header is internal/index's to write and check
// (index.AppendHeader, index.CheckHeader), as it is for the manifest, and
// the dictionary is built by appending and read through index.Cursor; the
// doc-ID set is a posting list's ID section (postings.AppendIDs,
// postings.DecodeIDs). A posting block's bytes — its skip table and the
// posting-list encoding after it, positional iff flags bit 0 — are
// internal/postings' to write and read: Write appends each with
// postings.AppendBlock, and every read verifies the block's checksum and
// hands it to postings.Block.Parse. This package owns the dictionary's
// entries, the block checksums, the cache and the corruption accounting.
//
// Every sum is index.Checksum's CRC-32C. Opening a segment reads and
// verifies only the header and dictionary — O(dictionary + docs), never
// O(postings) — and keeps the dictionary's entries on the heap as they
// are on disk: one copy of their verified bytes, never aliasing the file,
// so a term handed out survives Close's unmap. The walk that checks every
// entry also builds a sparse restart index — every restartEvery-th
// entry's position in the copy, its block's offset and its term's first
// eight bytes packed into a uint64 — so a lookup binary-searches the
// packed keys, compares whole terms only on a tie and decodes at most a
// restart group's entries. Posting blocks are mmap'd on linux
// (mmap_linux.go) or pread on demand elsewhere, verified against their
// dictionary checksum and decoded lazily per term into a bounded shared
// cache. The Reader implements index.Partition, so the whole query stack
// — boolean, phrase, prefix, BM25, snippets, suggestions — runs on a
// lazily opened catalog bit-identically to a heap-loaded one.
//
// A block is decoded as far as its caller reads. The posting-list encoding
// puts IDs first, frequencies second and positions last, and positions
// are most of a positional block, so the Partition seam has two list
// reads: Counts decodes IDs and frequencies and stops, Lookup decodes
// everything (postings.Block.Decode). Iterator streams the raw bytes and
// decodes nothing up front (postings.BlockIterator), and Window — the
// snippet pass — reads every block in place for the runs of a page's files
// (postings.Block.Window) and bypasses the cache entirely. All of them
// verify the block's checksum and skip table first, every time the block
// is not served from the cache. The Cache keeps one entry per block at the
// richest tier decoded so far — a counts-only entry answers Counts and
// Iterator, the first Lookup replaces it with the full list — and charges
// each entry what it costs the heap, bookkeeping included. BlockDecodes
// counts decodes of either tier, PositionDecodes those that read
// positions. A block that fails verification reads as an absent term,
// since none of the reads can return an error; Err keeps the first such
// fault and Corruptions counts them, which is how the search engine knows
// to fail the query instead of answering without the term.
//
// docs/FORMAT.md is the authoritative spec of the layout, including why a
// segment departs from the frame's whole-file-checksum shape (verifying a
// trailer over all postings would make open O(file) again).
package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

const (
	// headerLen is the fixed prefix: the DSIX header and the u64 dictLen.
	headerLen = index.HeaderLen + 8

	// flagPositional marks a segment whose posting blocks use the
	// positional encoding. All other flag bits must be zero.
	flagPositional = 1

	// maxCount bounds a term's document frequency against a corrupt
	// dictionary.
	maxCount = 1 << 31
	// minEntryLen is the smallest encoded dictionary entry: a term length,
	// df and blockLen of one byte each, and the u32 blockSum.
	minEntryLen = 3 + 4
	// restartEvery is the restart index's stride: entry g*restartEvery
	// is restart g, and a lookup reads at most the entries of one group
	// after the binary search. At 8 the index costs 2.5 B an entry;
	// BenchmarkSegmentFind ran about 10% slower at 16 and no faster at 4.
	restartEvery = 8
)

// Reader is an open segment: the verified dictionary in memory, the
// posting blocks on disk. It implements index.Partition. Methods are safe
// for concurrent use; the segment file must not change underneath it.
type Reader struct {
	path       string
	src        *source
	positional bool

	// The dictionary: the verified entries, copied once out of the file,
	// each still { string term | uvarint df | uvarint blockLen |
	// u32 blockSum }, and the restart index over them. Restart g is entry
	// g*restartEvery: it starts at dict[rpos[g]], its posting block at
	// offset roff[g] of the block region (blocks are contiguous, so an
	// entry's offset is its restart's plus the blockLens between them),
	// and keys[g] is its term's first 8 bytes, big-endian and zero-padded,
	// which ascend (not strictly) as the terms do.
	dict   string
	keys   []uint64
	rpos   []uint32
	roff   []int64
	nTerms int

	docs      *postings.List // the partition's persisted doc-ID set
	nPostings int64
	blocksOff int64 // file offset of the block region

	cache *Cache
	// decodes counts posting-block decodes of either tier (cache misses) —
	// the lazy contract's observable: Open performs none. posDecodes
	// counts the ones that went on into a positions section.
	decodes    atomic.Uint64
	posDecodes atomic.Uint64
	// cached tracks the estimated bytes this reader holds in the shared
	// cache (the cache decrements it on eviction).
	cached atomic.Int64

	// corrupt records the first posting-block corruption found by a lazy
	// read, none of which has an error return, and corruptions counts
	// them all. Err and Corruptions surface them.
	corruptMu   sync.Mutex
	corrupt     error
	corruptions atomic.Uint64
}

// OpenBytes opens an in-memory segment image, same contract as Open. The
// eager loading path uses it to materialize segment files it has already
// read and whole-file-verified; data must not be modified while the reader
// lives.
func OpenBytes(name string, data []byte, cache *Cache) (*Reader, error) {
	return open(name, newByteSource(data), cache)
}

// Open opens path as a segment, verifying the header and dictionary
// (never the posting blocks — Materialize checks every one; each block is
// also checked against its dictionary checksum on every read the cache
// does not serve). cache, which may be shared across the readers of a
// directory, bounds decoded posting blocks; nil disables caching.
func Open(path string, cache *Cache) (*Reader, error) {
	src, err := openSource(path)
	if err != nil {
		return nil, err
	}
	r, err := open(path, src, cache)
	if err != nil {
		src.Close()
		return nil, err
	}
	return r, nil
}

func open(path string, src *source, cache *Cache) (*Reader, error) {
	if src.size < headerLen+4 {
		return nil, fmt.Errorf("segment: %s: truncated (%d bytes)", path, src.size)
	}
	hdr, err := src.slice(0, headerLen)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	flags, err := index.CheckHeader(hdr, index.KindSegment)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if flags&^byte(flagPositional) != 0 {
		return nil, fmt.Errorf("segment: %s: unknown flags %#x", path, flags)
	}
	dictLen := binary.LittleEndian.Uint64(hdr[index.HeaderLen:])
	if dictLen > uint64(src.size-headerLen-4) {
		return nil, fmt.Errorf("segment: %s: dictionary length %d exceeds file", path, dictLen)
	}
	if dictLen > math.MaxUint32 {
		// The restart index holds u32 positions in the entries' copy.
		return nil, fmt.Errorf("segment: %s: dictionary of %d bytes exceeds 4 GiB", path, dictLen)
	}

	// Checksum-first for everything trusted at open: the header and
	// dictionary are verified before a byte of them is parsed. Posting
	// blocks carry per-block checksums in the dictionary, checked when a
	// block is first decoded.
	region, err := src.slice(0, headerLen+int64(dictLen))
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	sumBuf, err := src.slice(headerLen+int64(dictLen), 4)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if want, got := binary.LittleEndian.Uint32(sumBuf), index.Checksum(region); got != want {
		return nil, fmt.Errorf("segment: %s: dictionary checksum mismatch: file %#x, computed %#x", path, want, got)
	}

	r := &Reader{
		path:       path,
		src:        src,
		positional: flags&flagPositional != 0,
		blocksOff:  headerLen + int64(dictLen) + 4,
		cache:      cache,
	}
	c := index.NewCursor(region[headerLen:])

	// Doc-ID set: the partition's NOT-universe base, an ID section like a
	// posting list's (postings.DecodeIDs holds its count to the bytes that
	// could back it; the entries below are held the same way). The list
	// adopts the decoded IDs, which ascend strictly.
	ids := c.IDs()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("segment: %s: document set: %w", path, err)
	}
	r.docs = postings.FromColumns(ids, nil, nil)

	blocksLen := c.Uvarint()
	if got := uint64(src.size - r.blocksOff); blocksLen != got {
		return nil, fmt.Errorf("segment: %s: block region is %d bytes, dictionary says %d", path, got, blocksLen)
	}
	termCount := c.Count("term", minEntryLen)
	groups := (termCount + restartEvery - 1) / restartEvery
	r.keys = make([]uint64, groups)
	r.rpos = make([]uint32, groups)
	r.roff = make([]int64, groups)
	entries := c.Left() // the entries run to the region's end
	var prev []byte
	off := uint64(0)
	for i := range termCount {
		pos := entries - c.Left()
		term := c.StrBytes()
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("segment: %s: term %d: %w", path, i, err)
		}
		if i > 0 && bytes.Compare(term, prev) <= 0 {
			return nil, fmt.Errorf("segment: %s: term %q out of order after %q", path, term, prev)
		}
		prev = term
		df := c.Uvarint()
		if df == 0 || df > maxCount {
			return nil, fmt.Errorf("segment: %s: term %q: absurd document frequency %d", path, term, df)
		}
		blen := c.Uvarint()
		if blen > blocksLen || off+blen > blocksLen {
			return nil, fmt.Errorf("segment: %s: term %q: block overruns region", path, term)
		}
		c.U32() // blockSum, read from the copy when the block is
		if i%restartEvery == 0 {
			g := i / restartEvery
			r.keys[g], r.rpos[g], r.roff[g] = prefixKey(term), uint32(pos), int64(off)
		}
		off += blen
		r.nPostings += int64(df)
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("segment: %s: dictionary: %w", path, err)
	}
	if c.Left() != 0 {
		return nil, fmt.Errorf("segment: %s: %d trailing dictionary bytes", path, c.Left())
	}
	if off != blocksLen {
		return nil, fmt.Errorf("segment: %s: blocks cover %d of %d region bytes", path, off, blocksLen)
	}
	r.dict = string(region[len(region)-entries:])
	r.nTerms = termCount
	return r, nil
}

// Close releases the mapping or file handle. Posting lists already decoded
// remain valid (decodes copy, never alias the mapping), but further
// lookups of uncached terms will fail.
func (r *Reader) Close() error {
	if r.cache != nil {
		r.cache.dropOwner(r)
	}
	return r.src.Close()
}

// BlockDecodes returns how many posting-block decodes the reader has
// performed, of either tier — 0 right after Open, by the lazy contract.
func (r *Reader) BlockDecodes() uint64 { return r.decodes.Load() }

// PositionDecodes returns how many of those decodes read a positions
// section. Only Lookup on a positional segment does; a query that reads
// no positions must leave it where it was.
func (r *Reader) PositionDecodes() uint64 { return r.posDecodes.Load() }

// Err returns the first posting-block corruption a lazy read ran into
// (Lookup, Counts and Iterator have no error return; they report the term
// absent and record the fault here), or nil.
func (r *Reader) Err() error {
	r.corruptMu.Lock()
	defer r.corruptMu.Unlock()
	return r.corrupt
}

// Corruptions returns how many reads have failed verification so far. A
// corrupt block is never cached, so every read of it counts again: a
// caller that sees the count move across an evaluation knows the
// evaluation ran over an incomplete partition.
func (r *Reader) Corruptions() uint64 { return r.corruptions.Load() }

func (r *Reader) noteCorruption(err error) {
	r.corruptMu.Lock()
	if r.corrupt == nil {
		r.corrupt = err
	}
	r.corruptMu.Unlock()
	r.corruptions.Add(1)
}

// entry is one dictionary entry, decoded from the copy.
type entry struct {
	term string // a substring of the copy
	df   int
	off  int64 // the posting block's offset in the block region
	size int64 // and its length
	sum  uint32
}

// prefixKey packs s's first 8 bytes big-endian, zero-padded: a < b gives
// prefixKey(a) <= prefixKey(b), so unequal keys order their terms and
// equal ones leave it to the terms.
func prefixKey[T string | []byte](s T) uint64 {
	var k uint64
	for i := range 8 {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// uvarintAt decodes the uvarint at s[pos] and returns it with the position
// after it. Open verified every entry, so it checks nothing.
func uvarintAt(s string, pos int) (uint64, int) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := s[pos]
		pos++
		if b < 0x80 {
			return v | uint64(b)<<shift, pos
		}
		v |= uint64(b&0x7f) << shift
	}
}

// dictCursor reads the dictionary copy's entries in order: the next one
// starts at dict[pos], and its posting block where e's ends. Open
// verified every entry, so it checks nothing.
type dictCursor struct {
	dict string
	pos  int
	e    entry // the entry next decoded last
}

// cursor returns a dictCursor at restart g.
func (r *Reader) cursor(g int) dictCursor {
	return dictCursor{dict: r.dict, pos: int(r.rpos[g]), e: entry{off: r.roff[g]}}
}

// term returns the term of the entry at the cursor, without moving it.
func (c *dictCursor) term() string {
	n, p := uvarintAt(c.dict, c.pos)
	return c.dict[p : p+int(n)]
}

// next decodes the entry at the cursor and moves past it. The entry is
// the cursor's own, overwritten by the next call.
func (c *dictCursor) next() *entry {
	n, p := uvarintAt(c.dict, c.pos)
	c.e.term = c.dict[p : p+int(n)]
	df, p := uvarintAt(c.dict, p+int(n))
	size, p := uvarintAt(c.dict, p)
	d := c.dict[p : p+4]
	c.e.off += c.e.size
	c.e.df, c.e.size = int(df), int64(size)
	c.e.sum = uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
	c.pos = p + 4
	return &c.e
}

// seek returns the ordinal of the first entry whose term is >= term, and a
// cursor at it; ord is NumTerms when every term is smaller. It
// binary-searches the restarts for the last one <= term, comparing whole
// terms only where the keys tie, and steps forward from there: past the
// group's last entry is the next restart, which is > term.
func (r *Reader) seek(term string) (ord int, c dictCursor) {
	key := prefixKey(term)
	lo, hi := 0, len(r.keys) // the first restart > term is in [lo, hi]
	for lo < hi {
		g := int(uint(lo+hi) >> 1)
		if k := r.keys[g]; k < key || k == key && r.restartTerm(g) <= term {
			lo = g + 1
		} else {
			hi = g
		}
	}
	if lo == 0 {
		lo = 1 // term sorts before every restart: step from entry 0
	}
	if lo > len(r.keys) {
		return 0, dictCursor{} // no terms
	}
	ord, c = (lo-1)*restartEvery, r.cursor(lo-1)
	for ; ord < r.nTerms && c.term() < term; ord++ {
		c.next()
	}
	return ord, c
}

// restartTerm returns restart g's term.
func (r *Reader) restartTerm(g int) string {
	c := r.cursor(g)
	return c.term()
}

// lookup returns term's ordinal and entry, or -1.
func (r *Reader) lookup(term string) (int, entry) {
	if ord, c := r.seek(term); ord < r.nTerms {
		if e := c.next(); e.term == term {
			return ord, *e
		}
	}
	return -1, entry{}
}

// Lookup returns the full posting list for term — with positions on a
// positional segment — decoding (and caching) its block on first use, or
// nil if the term is absent. A corrupt block also reports absent and
// records the fault for Err — queries cannot return a partial list.
func (r *Reader) Lookup(term string) *postings.List { return r.list(term, r.positional) }

// Counts returns term's IDs and frequencies and never reads a position:
// on a positional segment the decode stops where the block's positions
// section starts. The block's checksum, skip table and document frequency
// are verified exactly as for Lookup. A block Lookup has already decoded
// is served from the cache as it is, positions and all.
func (r *Reader) Counts(term string) *postings.List { return r.list(term, false) }

// list serves Lookup (pos on a positional segment) and Counts from the
// shared cache, which keeps one entry per block at the richest tier
// decoded so far: a counts-only entry answers Counts and Iterator, and
// the first Lookup of that term decodes the block in full and replaces it.
func (r *Reader) list(term string, pos bool) *postings.List {
	ord, e := r.lookup(term)
	if ord < 0 {
		return nil
	}
	if r.cache != nil {
		if l, ok := r.cache.get(r, ord, pos); ok {
			return l
		}
	}
	l, err := r.decodeBlock(&e, pos)
	if err != nil {
		r.noteCorruption(err)
		return nil
	}
	if r.cache != nil {
		r.cache.put(r, ord, l, pos)
	}
	return l
}

// Iterator returns a streaming cursor over term's postings, or nil when
// the term is absent or its block corrupt (recorded for Err, mirroring
// Lookup's corrupt-means-absent contract). When the block is already
// decoded in the shared cache, at either tier, the cursor rides the
// decoded list — a strict improvement, no re-streaming; otherwise it
// streams the raw block bytes (postings.BlockIterator, which records a
// fault it runs into for Err) and no decode is counted: evaluation that
// visits a fraction of the postings reads a fraction of the block and
// BlockDecodes stays untouched.
func (r *Reader) Iterator(term string) index.PostingIterator {
	ord, e := r.lookup(term)
	if ord < 0 {
		return nil
	}
	if r.cache != nil {
		if l, ok := r.cache.get(r, ord, false); ok {
			return postings.NewIterator(l)
		}
	}
	var b postings.Block
	if err := r.block(&e, &b); err != nil {
		r.noteCorruption(err)
		return nil
	}
	return b.Iterator(r.noteCorruption)
}

// DocFreq answers from the dictionary alone — no block is touched.
func (r *Reader) DocFreq(term string) int {
	_, e := r.lookup(term)
	return e.df
}

// TermsFrom walks the sorted dictionary from the first term >= from. The
// terms it yields are substrings of the dictionary's one copy.
func (r *Reader) TermsFrom(from string, yield func(term string, df int) bool) {
	for ord, c := r.seek(from); ord < r.nTerms; ord++ {
		if e := c.next(); !yield(e.term, e.df) {
			return
		}
	}
}

// Window makes one pass over the posting blocks in dictionary order and
// emits every occurrence, at a position in [lo[i], hi[i]], of any term in
// file files[i] (see index.Partition). Each block is verified like any
// uncached read — checksum, skip table, posting count — and then read in
// place by postings.Block.Window, which allocates nothing and stops
// where the windows end. The pass neither reads nor fills the block
// cache and decodes no list, so BlockDecodes does not move. A block that
// fails is skipped with the fault recorded, as for Lookup.
func (r *Reader) Window(files []postings.FileID, lo, hi []uint32, emit func(i int, term string, pos uint32)) {
	if !r.positional || len(files) == 0 {
		return
	}
	var b postings.Block
	c := dictCursor{dict: r.dict}
	for range r.nTerms {
		if err := r.windowBlock(c.next(), &b, files, lo, hi, emit); err != nil {
			r.noteCorruption(err)
		}
	}
}

// windowBlock verifies e's block into b and emits the term's occurrences
// in the windows.
func (r *Reader) windowBlock(e *entry, b *postings.Block, files []postings.FileID, lo, hi []uint32, emit func(i int, term string, pos uint32)) error {
	if err := r.block(e, b); err != nil {
		return err
	}
	if err := b.Window(files, lo, hi, func(i int, pos uint32) { emit(i, e.term, pos) }); err != nil {
		return r.fault(e, err)
	}
	return nil
}

// NumTerms returns the number of dictionary terms.
func (r *Reader) NumTerms() int { return r.nTerms }

// NumPostings returns the segment's (term, file) pair count, summed from
// the dictionary's document frequencies.
func (r *Reader) NumPostings() int64 { return r.nPostings }

// Positional reports whether posting blocks carry token positions.
func (r *Reader) Positional() bool { return r.positional }

// Docs returns a fresh copy of the segment's persisted doc-ID set. The
// engine owns the returned list (it merges term-free files into it), so the
// reader's own copy is never handed out.
func (r *Reader) Docs() *postings.List { return r.docs.Clone() }

// ResidentBytes estimates the reader's heap footprint: the dictionary's
// copy, 20 B a restart and the doc set, plus this reader's share of the
// block cache. The mmap'd file itself is page cache, not heap, and is not
// counted.
func (r *Reader) ResidentBytes() int64 {
	b := int64(len(r.dict)) + 20*int64(len(r.keys)) + 4*int64(r.docs.Len())
	return b + r.cached.Load()
}

// decodeBlock reads, verifies, and decodes e's posting block, bypassing
// the cache. Without pos the decode of a positional
// block ends with its frequency section; the verification before it — the
// checksum over every byte of the block, the skip table — is the same.
func (r *Reader) decodeBlock(e *entry, pos bool) (*postings.List, error) {
	var b postings.Block
	if err := r.block(e, &b); err != nil {
		return nil, err
	}
	l, err := b.Decode(pos)
	if err != nil {
		return nil, r.fault(e, err)
	}
	r.decodes.Add(1)
	if pos {
		r.posDecodes.Add(1)
	}
	return l, nil
}

// fault names the segment and term a block error belongs to.
func (r *Reader) fault(e *entry, err error) error {
	return fmt.Errorf("segment: %s: term %q: %w", r.path, e.term, err)
}

// block sets b to e's posting block, read, checked against the
// checksum the dictionary holds for it and parsed against its df
// (postings.Block.Parse). Every read of a block that is not served from
// the cache — either decode tier, a streaming iterator, the window pass —
// starts here: no byte of a block is parsed before the whole block has
// verified.
func (r *Reader) block(e *entry, b *postings.Block) error {
	blk, err := r.src.slice(r.blocksOff+e.off, e.size)
	if err != nil {
		return r.fault(e, err)
	}
	if got := index.Checksum(blk); got != e.sum {
		return r.fault(e, fmt.Errorf("block checksum mismatch: dictionary %#x, computed %#x", e.sum, got))
	}
	if err := b.Parse(blk, e.df, r.positional); err != nil {
		return r.fault(e, err)
	}
	return nil
}

// Materialize fully decodes the segment into a heap index — the eager
// loading path (shard.LoadDir) applied to a segment file, and the bridge
// that keeps directories loadable by every API that predates lazy open.
// The verified dictionary is the index's dictionary order, its keys
// substrings of one arena holding only the terms' bytes (not of the
// reader's copy, which the index would otherwise keep alive), each block
// is decoded into its term's element of one slab of lists, and the index
// adopts the persisted document set OpenDir answers NOT from.
func (r *Reader) Materialize() (*index.Index, error) {
	// Every entry takes minEntryLen bytes beside its term's, which bounds
	// the arena.
	var arena strings.Builder
	arena.Grow(len(r.dict) - minEntryLen*r.nTerms)
	c := dictCursor{dict: r.dict}
	for range r.nTerms {
		arena.WriteString(c.next().term)
	}
	names := arena.String()
	terms := make([]string, r.nTerms)
	slab := make([]postings.List, r.nTerms)
	var b postings.Block
	c = dictCursor{dict: r.dict}
	for ord := range slab {
		e := c.next()
		if err := r.block(e, &b); err != nil {
			return nil, err
		}
		if err := b.DecodeInto(&slab[ord], r.positional); err != nil {
			return nil, r.fault(e, err)
		}
		terms[ord], names = names[:len(e.term)], names[len(e.term):]
	}
	return index.NewOrdered(terms, slab, r.docs.IDs(), r.positional), nil
}
