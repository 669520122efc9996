// Package segment implements the DSIX v10 lazy segment: an on-disk posting
// layout a server can open and query without materializing it.
//
// A v10 segment file holds one document partition of a catalog. Where a
// frame's term section is a stream the reader must fully decode before
// answering anything, v10 separates a small, eagerly verified term
// dictionary from the posting blocks it points into:
//
//	magic "DSIX" | u16 version = 10 | u8 kind = 1 | u8 flags | u64 dictLen
//	dictionary region (dictLen bytes):
//	    uvarint docCount | docCount delta-coded doc IDs
//	    uvarint blocksLen
//	    uvarint termCount
//	    termCount × { string term (strictly ascending) | uvarint df |
//	                  uvarint blockLen | u64 blockSum }
//	u64 dictSum — FNV-1 over everything from offset 0 through the dictionary
//	posting-block region (blocksLen bytes): termCount blocks, contiguous,
//	    in term order — term i's offset is the sum of the blockLens before it
//	each block: uvarint skipN | skipN × { uvarint idDelta, uvarint offDelta }
//	            | standard posting-list varint encoding (positional iff
//	              flags bit 0)
//
// Opening a segment reads and verifies only the header and dictionary —
// O(dictionary + docs), never O(postings). Posting blocks are mmap'd on
// linux (mmap_linux.go) or pread on demand elsewhere, verified against
// their dictionary checksum and decoded lazily per term into a bounded
// shared cache. The Reader implements index.Partition, so the whole query
// stack — boolean, phrase, prefix, BM25, snippets, suggestions — runs on a
// lazily opened catalog bit-identically to a heap-loaded one.
//
// A block is decoded as far as its caller reads. The posting-list encoding
// puts IDs first, frequencies second and positions last, and positions
// are most of a positional block, so the Partition seam has two list
// reads: Counts decodes IDs and frequencies and stops (postings.Decode),
// Lookup decodes everything (postings.DecodePositional). Iterator streams
// the raw bytes and decodes nothing up front. All three verify the block's
// checksum and skip table first, every time the block is not served from
// the cache. The Cache keeps one entry per block at the richest tier
// decoded so far — a counts-only entry answers Counts and Iterator, the
// first Lookup replaces it with the full list — and charges each entry
// what it costs the heap, bookkeeping included. BlockDecodes counts
// decodes of either tier, PositionDecodes those that read positions. A
// block that fails verification reads as an absent term, since none of
// the reads can return an error; Err keeps the first such fault and
// Corruptions counts them, which is how the search engine knows to fail
// the query instead of answering without the term.
//
// docs/FORMAT.md is the authoritative spec of the layout, including why
// v10 departs from the single-frame whole-file-checksum shape (verifying a
// trailer over all postings would make open O(file) again).
package segment

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"desksearch/internal/fnv"
	"desksearch/internal/index"
	"desksearch/internal/postings"
)

const (
	segMagic = "DSIX" // shared with internal/index's frame magic
	segKind  = 1      // kind byte: shard segment (frames use 0 and 2)

	// headerLen is the fixed prefix: magic, version, kind, flags, dictLen.
	headerLen = 4 + 2 + 1 + 1 + 8

	// flagPositional marks a segment whose posting blocks use the
	// positional encoding. All other flag bits must be zero.
	flagPositional = 1

	// skipInterval is the posting stride between skip entries: one entry
	// per skipInterval postings lets a seek land within skipInterval
	// varints of any target ID.
	skipInterval = 128

	// maxCount bounds doc/term/posting counts against corrupt headers,
	// matching internal/index's cap.
	maxCount = 1 << 31
	// maxTermLen matches the codec's string cap.
	maxTermLen = 1 << 20
)

// entry is one in-memory term-dictionary entry.
type entry struct {
	term string
	df   int
	off  int64 // into the block region (derived: blocks are contiguous)
	blen int64
	sum  uint64 // FNV-1 of the block bytes
}

// Reader is an open v10 segment: the verified dictionary in memory, the
// posting blocks on disk. It implements index.Partition. Methods are safe
// for concurrent use; the segment file must not change underneath it.
type Reader struct {
	path       string
	src        *source
	positional bool
	entries    []entry
	docs       *postings.List // the partition's persisted doc-ID set
	nPostings  int64
	blocksOff  int64 // file offset of the block region

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
// eager loading path uses it to materialize v10 files it has already read
// and whole-file-verified; data must not be modified while the reader
// lives.
func OpenBytes(name string, data []byte, cache *Cache) (*Reader, error) {
	return open(name, newByteSource(data), cache)
}

// Open opens path as a v10 segment, verifying the header and dictionary
// (never the posting blocks — Verify does that on demand; each block is
// also checked against its dictionary checksum on first decode). cache,
// which may be shared across the readers of a directory, bounds decoded
// posting blocks; nil disables caching.
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
	if src.size < headerLen+8 {
		return nil, fmt.Errorf("segment: %s: truncated (%d bytes)", path, src.size)
	}
	hdr, err := src.slice(0, headerLen)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if string(hdr[:4]) != segMagic {
		return nil, fmt.Errorf("segment: %s: bad magic %q", path, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != index.LazySegmentVersion {
		return nil, fmt.Errorf("segment: %s: %w", path, index.VersionError(v, index.LazySegmentVersion))
	}
	if hdr[6] != segKind {
		return nil, fmt.Errorf("segment: %s: frame kind %d, want %d", path, hdr[6], segKind)
	}
	flags := hdr[7]
	if flags&^byte(flagPositional) != 0 {
		return nil, fmt.Errorf("segment: %s: unknown flags %#x", path, flags)
	}
	dictLen := binary.LittleEndian.Uint64(hdr[8:16])
	if dictLen > uint64(src.size-headerLen-8) {
		return nil, fmt.Errorf("segment: %s: dictionary length %d exceeds file", path, dictLen)
	}

	// Checksum-first for everything trusted at open: the header and
	// dictionary are verified before a byte of them is parsed. Posting
	// blocks carry per-block checksums in the dictionary, checked when a
	// block is first decoded.
	region, err := src.slice(0, headerLen+int64(dictLen))
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	sumBuf, err := src.slice(headerLen+int64(dictLen), 8)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	if want, got := binary.LittleEndian.Uint64(sumBuf), fnv.Hash64Bytes(region); got != want {
		return nil, fmt.Errorf("segment: %s: dictionary checksum mismatch: file %#x, computed %#x", path, want, got)
	}

	r := &Reader{
		path:       path,
		src:        src,
		positional: flags&flagPositional != 0,
		blocksOff:  headerLen + int64(dictLen) + 8,
		cache:      cache,
	}
	c := &cursor{b: region[headerLen:]}

	// Doc-ID set: the partition's NOT-universe base, delta-coded like a
	// posting-list ID section.
	docCount := c.uvarint()
	if docCount > maxCount {
		return nil, fmt.Errorf("segment: %s: absurd doc count %d", path, docCount)
	}
	ids := make([]postings.FileID, 0, docCount)
	var prev uint64
	for i := uint64(0); i < docCount; i++ {
		delta := c.uvarint()
		id := prev + delta
		if i == 0 {
			id = delta
		} else if delta == 0 {
			return nil, fmt.Errorf("segment: %s: duplicate doc id %d", path, id)
		}
		if id > 0xFFFF_FFFF {
			return nil, fmt.Errorf("segment: %s: doc id %d overflows FileID", path, id)
		}
		ids = append(ids, postings.FileID(id))
		prev = id
	}
	r.docs = postings.FromSortedIDs(ids)

	blocksLen := c.uvarint()
	if got := uint64(src.size - r.blocksOff); blocksLen != got {
		return nil, fmt.Errorf("segment: %s: block region is %d bytes, dictionary says %d", path, got, blocksLen)
	}
	termCount := c.uvarint()
	if termCount > maxCount {
		return nil, fmt.Errorf("segment: %s: absurd term count %d", path, termCount)
	}
	r.entries = make([]entry, 0, termCount)
	var off int64
	prevTerm := ""
	for i := uint64(0); i < termCount; i++ {
		term := c.str()
		if c.err != nil {
			return nil, fmt.Errorf("segment: %s: term %d: %w", path, i, c.err)
		}
		if i > 0 && term <= prevTerm {
			return nil, fmt.Errorf("segment: %s: term %q out of order after %q", path, term, prevTerm)
		}
		prevTerm = term
		df := c.uvarint()
		if df == 0 || df > maxCount {
			return nil, fmt.Errorf("segment: %s: term %q: absurd document frequency %d", path, term, df)
		}
		blen := c.uvarint()
		if blen > blocksLen || uint64(off)+blen > blocksLen {
			return nil, fmt.Errorf("segment: %s: term %q: block overruns region", path, term)
		}
		sum := c.u64()
		r.entries = append(r.entries, entry{term: term, df: int(df), off: off, blen: int64(blen), sum: sum})
		off += int64(blen)
		r.nPostings += int64(df)
	}
	if c.err != nil {
		return nil, fmt.Errorf("segment: %s: dictionary: %w", path, c.err)
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("segment: %s: %d trailing dictionary bytes", path, len(c.b)-c.off)
	}
	if uint64(off) != blocksLen {
		return nil, fmt.Errorf("segment: %s: blocks cover %d of %d region bytes", path, off, blocksLen)
	}
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

// Path returns the file the reader serves from.
func (r *Reader) Path() string { return r.path }

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

// find returns the ordinal of term in the dictionary, or -1.
func (r *Reader) find(term string) int {
	i := sort.Search(len(r.entries), func(k int) bool { return r.entries[k].term >= term })
	if i < len(r.entries) && r.entries[i].term == term {
		return i
	}
	return -1
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
	ord := r.find(term)
	if ord < 0 {
		return nil
	}
	if r.cache != nil {
		if l, ok := r.cache.get(r, ord, pos); ok {
			return l
		}
	}
	l, err := r.decodeBlock(ord, pos)
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
// streams the raw
// block bytes and no decode is counted: evaluation that visits a
// fraction of the postings reads a fraction of the block and
// BlockDecodes stays untouched.
func (r *Reader) Iterator(term string) index.PostingIterator {
	ord := r.find(term)
	if ord < 0 {
		return nil
	}
	if r.cache != nil {
		if l, ok := r.cache.get(r, ord, false); ok {
			return postings.NewIterator(l)
		}
	}
	it, err := r.iterAt(ord)
	if err != nil {
		r.noteCorruption(err)
		return nil
	}
	it.notify = r.noteCorruption
	return it
}

// DocFreq answers from the dictionary alone — no block is touched.
func (r *Reader) DocFreq(term string) int {
	if ord := r.find(term); ord >= 0 {
		return r.entries[ord].df
	}
	return 0
}

// TermsFrom walks the sorted dictionary from the first term >= from.
func (r *Reader) TermsFrom(from string, yield func(term string, df int) bool) {
	i := sort.Search(len(r.entries), func(k int) bool { return r.entries[k].term >= from })
	for ; i < len(r.entries); i++ {
		if !yield(r.entries[i].term, r.entries[i].df) {
			return
		}
	}
}

// Range walks the dictionary in ascending order with each term's decoded
// posting list — the expensive full-materialization pass of the Partition
// interface: every block is decoded (and cached) on the way through.
// Terms whose blocks fail their checksum are skipped, with the error
// recorded as for Lookup.
func (r *Reader) Range(f func(term string, l *postings.List) bool) {
	for i := range r.entries {
		l := r.Lookup(r.entries[i].term)
		if l == nil {
			continue
		}
		if !f(r.entries[i].term, l) {
			return
		}
	}
}

// NumTerms returns the number of dictionary terms.
func (r *Reader) NumTerms() int { return len(r.entries) }

// NumPostings returns the segment's (term, file) pair count, summed from
// the dictionary's document frequencies.
func (r *Reader) NumPostings() int64 { return r.nPostings }

// Positional reports whether posting blocks carry token positions.
func (r *Reader) Positional() bool { return r.positional }

// Docs returns a fresh copy of the segment's persisted doc-ID set. The
// engine owns the returned list (it merges orphans into it), so the
// reader's own copy is never handed out.
func (r *Reader) Docs() *postings.List { return r.docs.Clone() }

// ResidentBytes estimates the reader's heap footprint: the in-memory
// dictionary and doc set plus this reader's share of the block cache.
// The mmap'd file itself is page cache, not heap, and is not counted.
func (r *Reader) ResidentBytes() int64 {
	b := int64(r.docs.Len()) * 4
	for i := range r.entries {
		b += int64(len(r.entries[i].term)) + 48
	}
	return b + r.cached.Load()
}

// decodeBlock reads, verifies, and decodes term ordinal ord's posting
// block, bypassing the cache. Without pos the decode of a positional
// block ends with its frequency section; the verification before it — the
// checksum over every byte of the block, the skip table — is the same.
func (r *Reader) decodeBlock(ord int, pos bool) (*postings.List, error) {
	e := &r.entries[ord]
	blk, err := r.block(e)
	if err != nil {
		return nil, err
	}
	enc, err := skipEncoded(blk, e.df)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: term %q: %w", r.path, e.term, err)
	}
	var (
		l *postings.List
		n int
	)
	if pos {
		l, n, err = postings.DecodePositional(enc)
	} else {
		l, n, err = postings.Decode(enc)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %s: term %q: %w", r.path, e.term, err)
	}
	// What the counts tier leaves unread of a positional block is its
	// positions section; any other decode must have consumed the block.
	if stopsEarly := r.positional && !pos; n != len(enc) && !stopsEarly {
		return nil, fmt.Errorf("segment: %s: term %q: %d trailing block bytes", r.path, e.term, len(enc)-n)
	}
	if l.Len() != e.df {
		return nil, fmt.Errorf("segment: %s: term %q: block has %d postings, dictionary says %d",
			r.path, e.term, l.Len(), e.df)
	}
	r.decodes.Add(1)
	if pos {
		r.posDecodes.Add(1)
	}
	return l, nil
}

// block returns e's posting block, read and checked against the checksum
// the dictionary holds for it. Every read of a block that is not served
// from the cache — either decode tier, a streaming iterator — starts here:
// no byte of a block is parsed before the whole block has verified.
func (r *Reader) block(e *entry) ([]byte, error) {
	blk, err := r.src.slice(r.blocksOff+e.off, e.blen)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: term %q: %w", r.path, e.term, err)
	}
	if got := fnv.Hash64Bytes(blk); got != e.sum {
		return nil, fmt.Errorf("segment: %s: term %q: block checksum mismatch: dictionary %#x, computed %#x",
			r.path, e.term, e.sum, got)
	}
	return blk, nil
}

// skipEncoded validates a block's skip table and returns the posting-list
// encoding that follows it. df bounds the plausible entry count.
func skipEncoded(blk []byte, df int) ([]byte, error) {
	c := &cursor{b: blk}
	skipN, err := skipCount(c, df)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < skipN; i++ {
		c.uvarint() // idDelta
		c.uvarint() // offDelta
	}
	if c.err != nil {
		return nil, fmt.Errorf("corrupt skip table: %w", c.err)
	}
	return blk[c.off:], nil
}

// skipCount reads the skip-entry count a block opens with and holds it to
// what a df-posting block carries and to the block's own size — an entry
// takes at least two bytes — so no loop or allocation is sized by a
// number the block cannot back.
func skipCount(c *cursor, df int) (uint64, error) {
	skipN := c.uvarint()
	if want := uint64(maxSkips(df)); skipN != want {
		return 0, fmt.Errorf("%d skip entries, want %d", skipN, want)
	}
	if skipN > uint64(len(c.b))/2 {
		return 0, fmt.Errorf("%d skip entries exceed the %d-byte block", skipN, len(c.b))
	}
	return skipN, nil
}

// maxSkips returns the number of skip entries a df-posting block carries:
// one per full skipInterval stride past the first posting.
func maxSkips(df int) int { return (df - 1) / skipInterval }

// Verify checks the whole segment: every posting block's checksum and
// decodability against its dictionary entry. Open already verified the
// header and dictionary. It is the eager integrity pass for callers that
// cannot tolerate lazily discovered corruption (and for corruption tests);
// it decodes every block, so it costs what an eager load does.
func (r *Reader) Verify() error {
	for ord := range r.entries {
		if _, err := r.decodeBlock(ord, r.positional); err != nil {
			return err
		}
	}
	return nil
}

// Materialize fully decodes the segment into a heap index — the eager
// loading path (shard.LoadDir) applied to a v10 file, and the bridge that
// keeps v10 catalogs loadable by every API that predates lazy open.
func (r *Reader) Materialize() (*index.Index, error) {
	ix := index.New(len(r.entries))
	if r.positional {
		ix.SetPositional()
	}
	for ord := range r.entries {
		l, err := r.decodeBlock(ord, r.positional)
		if err != nil {
			return nil, err
		}
		ix.MergeTerm(r.entries[ord].term, l)
	}
	return ix, nil
}

// cursor is a bounds-checked sequential reader over a byte slice; the
// first failure sticks in err and subsequent reads return zero values.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("corrupt uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b)-c.off < 8 {
		c.err = fmt.Errorf("truncated u64 at offset %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > maxTermLen {
		c.err = fmt.Errorf("absurd string length %d", n)
		return ""
	}
	if uint64(len(c.b)-c.off) < n {
		c.err = fmt.Errorf("string overruns buffer at offset %d", c.off)
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}
