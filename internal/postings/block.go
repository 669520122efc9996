package postings

import (
	"encoding/binary"
	"fmt"
)

// skipInterval is the posting stride between a block's skip entries: one
// entry per skipInterval postings lets a seek land within skipInterval
// varints of any target ID.
const skipInterval = 128

// AppendBlock appends l's posting block to dst and returns it: the skip
// table, then l's encoding (EncodePositional when positional, else
// Encode), as docs/FORMAT.md lays them out. The table opens with its
// entry count, (len−1)/skipInterval; entry k (1-based) holds the ID of
// posting k·skipInterval and the offset in the encoding just past that
// ID's varint, both delta-coded across entries. The offsets are summed
// from the ID deltas' varint lengths, so the list is encoded once,
// straight into dst.
func AppendBlock(dst []byte, l *List, positional bool) []byte {
	dst = binary.AppendUvarint(dst, uint64((len(l.ids)-1)/skipInterval))
	off, prevOff := uvarintLen(uint64(len(l.ids))), 0
	var prev, prevSkip FileID
	for i, id := range l.ids {
		off += uvarintLen(uint64(id - prev))
		prev = id
		if i > 0 && i%skipInterval == 0 {
			dst = binary.AppendUvarint(dst, uint64(id-prevSkip))
			dst = binary.AppendUvarint(dst, uint64(off-prevOff))
			prevSkip, prevOff = id, off
		}
	}
	if positional {
		return l.EncodePositional(dst)
	}
	return l.Encode(dst)
}

// Block is a posting block that Parse has checked against its term's
// dictionary entry. It reads the block in place — the two decode tiers,
// the streaming iterator and the snippet window — and copies nothing until
// a decode builds a list.
type Block struct {
	enc        []byte // the posting-list encoding after the skip table
	skips      []byte // the skip table's entries
	count      int    // postings: the dictionary's document frequency
	start      int    // offset in enc of the first ID varint
	lastOff    int    // offset in enc of the last skip entry; 0 without one
	positional bool   // enc carries a positions section
}

// Parse sets b to blk, checked against the document frequency df its
// dictionary entry records: (df−1)/skipInterval skip entries, no more than
// the block's bytes can hold, each ID within FileID's range and each
// offset within the encoding's ID section, and df postings. positional
// says whether the encoding carries a positions section, as a segment's
// flags do. It allocates nothing, and b is filled in place so that a pass
// over many blocks can reuse one; after an error b is not to be read.
func (b *Block) Parse(blk []byte, df int, positional bool) error {
	skipN, off := uvarint(blk, 0)
	if off <= 0 {
		return fmt.Errorf("postings: corrupt skip table")
	}
	if want := uint64((df - 1) / skipInterval); skipN != want {
		return fmt.Errorf("postings: %d skip entries, want %d", skipN, want)
	}
	if skipN > uint64(len(blk)-off)/2 { // an entry takes at least two bytes
		return fmt.Errorf("postings: %d skip entries exceed the %d-byte block", skipN, len(blk))
	}
	table, firstOff, lastOff := off, 0, 0
	var id uint64
	for k := uint64(0); k < skipN; k++ {
		idDelta, n := uvarint(blk, off)
		if n <= 0 {
			return fmt.Errorf("postings: corrupt skip table")
		}
		off += n
		offDelta, n := uvarint(blk, off)
		if n <= 0 {
			return fmt.Errorf("postings: corrupt skip table")
		}
		off += n
		if idDelta > 0xFFFF_FFFF-id || offDelta > uint64(len(blk)-lastOff) {
			return fmt.Errorf("postings: skip entry %d out of range", k)
		}
		id += idDelta
		lastOff += int(offDelta)
		if k == 0 {
			firstOff = lastOff
		}
	}
	enc := blk[off:]
	count, start := uvarint(enc, 0)
	if start <= 0 {
		return fmt.Errorf("postings: corrupt count")
	}
	if count != uint64(df) {
		return fmt.Errorf("postings: block has %d postings, dictionary says %d", count, df)
	}
	if skipN > 0 && (firstOff <= start || lastOff > len(enc)) {
		return fmt.Errorf("postings: skip entry out of range")
	}
	b.enc, b.skips = enc, blk[table:off]
	b.count, b.start, b.lastOff, b.positional = df, start, lastOff, positional
	return nil
}

// Decode decodes the block's list: with positions, all of it
// (DecodePositional, on a positional block only); without, its IDs and
// frequencies (Decode), leaving a positional block's positions section
// unread. Any other byte left over is a fault.
func (b *Block) Decode(positions bool) (*List, error) {
	l := new(List)
	if err := b.DecodeInto(l, positions); err != nil {
		return nil, err
	}
	return l, nil
}

// DecodeInto is Decode into a list the caller provides — an element of a
// slab of lists, say — whatever l held. After an error l is not to be
// read.
func (b *Block) DecodeInto(l *List, positions bool) error {
	var (
		n   int
		err error
	)
	if positions {
		*l, n, err = decodePositional(b.enc)
	} else {
		*l, n, err = decode(b.enc)
	}
	if err != nil {
		return err
	}
	if stopsEarly := b.positional && !positions; n != len(b.enc) && !stopsEarly {
		return fmt.Errorf("postings: %d trailing block bytes", len(b.enc)-n)
	}
	return nil
}

// BlockIterator streams a block's postings off its bytes without decoding
// the list. SeekGE jumps through the skip table to within skipInterval
// postings of any target, which is what makes intersecting a rare term
// against a dense one sublinear in the dense list. Postings are validated
// as they stream: on corruption the iterator stops for good and reports
// the fault to its onFault. It reads the block in place, so its bytes must
// outlive it.
type BlockIterator struct {
	b Block

	// The skip cursor: skips holds the entries SeekGE has not passed, and
	// skipped, skipID and skipOff count the ones it has and record the
	// last of them. The table is read forward once over the iterator's
	// life.
	skips   []byte
	skipped int
	skipID  uint64
	skipOff int

	idx   int    // postings consumed
	off   int    // next ID varint's offset in enc
	prev  uint64 // last decoded ID
	valid bool
	err   error // the corruption that stopped iteration

	// The frequency section, located on the first Count or MaxCount: from
	// the last skip entry the ID section ends within skipInterval varints,
	// so locating costs O(skipInterval) whatever the list's length.
	freqsLocated bool
	counted      bool // the marker is listCounted

	// Forward-only counts cursor: cIdx is the posting index the cursor
	// reads next, cOff its offset, cur the count at posting cIdx-1.
	cIdx int
	cOff int
	cur  uint32

	onFault func(error)
}

// Iterator returns a streaming cursor before the block's first posting.
// onFault, when non-nil, is told of a corruption the stream runs into.
func (b *Block) Iterator(onFault func(error)) *BlockIterator {
	return &BlockIterator{b: *b, skips: b.skips, off: b.start, onFault: onFault}
}

// Next advances to the next posting, returning false at the end of the
// list or on corruption.
func (it *BlockIterator) Next() bool {
	if it.err != nil || it.idx >= it.b.count {
		it.valid = false
		return false
	}
	off, id, ok := nextID(it.b.enc, it.off, uint64(it.idx), it.prev)
	if !ok {
		it.fail(fmt.Errorf("postings: corrupt, repeated or overflowing id at %d", it.idx))
		return false
	}
	it.off, it.prev = off, id
	it.idx++
	it.valid = true
	return true
}

// SeekGE positions the iterator at the first posting with ID >= id —
// never moving backwards — and reports whether one exists.
func (it *BlockIterator) SeekGE(id FileID) bool {
	if it.err != nil {
		return false
	}
	if it.valid && it.prev >= uint64(id) {
		return true
	}
	// Pass the skip entries below the target (Parse checked every
	// varint) and jump to the last one passed when it is ahead of the
	// cursor: the target then lies within skipInterval postings.
	for len(it.skips) > 0 {
		idDelta, n := uvarint(it.skips, 0)
		if it.skipID+idDelta >= uint64(id) {
			break
		}
		offDelta, m := uvarint(it.skips, n)
		it.skips = it.skips[n+m:]
		it.skipID += idDelta
		it.skipOff += int(offDelta)
		it.skipped++
	}
	if idx := it.skipped*skipInterval + 1; it.skipped > 0 && idx > it.idx {
		it.prev, it.off, it.idx, it.valid = it.skipID, it.skipOff, idx, true
	}
	for it.Next() {
		if it.prev >= uint64(id) {
			return true
		}
	}
	return false
}

// ID returns the current posting's file ID; valid only after a true
// Next/SeekGE.
func (it *BlockIterator) ID() FileID { return FileID(it.prev) }

// Len returns the block's posting count, the term's document frequency.
func (it *BlockIterator) Len() int { return it.b.count }

// fail records a corruption, invalidates the cursor and reports it.
func (it *BlockIterator) fail(err error) {
	it.err = err
	it.valid = false
	if it.onFault != nil {
		it.onFault(err)
	}
}

// locateFreqs finds the frequency section without streaming the whole ID
// section: it starts from the last skip entry, or from the cursor when
// that is further along, and skips the ID varints left.
func (it *BlockIterator) locateFreqs() bool {
	if it.freqsLocated {
		return true
	}
	if it.err != nil {
		return false
	}
	off, idx := it.off, it.idx
	if last := (it.b.count-1)/skipInterval*skipInterval + 1; it.b.lastOff > 0 && last > idx {
		off, idx = it.b.lastOff, last
	}
	off, err := skipUvarints(it.b.enc, off, uint64(it.b.count-idx))
	if err != nil {
		it.fail(err)
		return false
	}
	if off >= len(it.b.enc) {
		it.fail(fmt.Errorf("postings: missing frequency marker"))
		return false
	}
	switch marker := it.b.enc[off]; marker {
	case listBoolean, listCounted:
		it.counted = marker == listCounted
	default:
		it.fail(fmt.Errorf("postings: unknown frequency marker %d", marker))
		return false
	}
	it.cOff = off + 1
	it.freqsLocated = true
	return true
}

// Count returns the current posting's term frequency; valid only after a
// true Next/SeekGE. The counts cursor is forward-only and advances in
// step with the postings actually asked about, so a scoring pass over a
// selective match set reads each count varint at most once. A corrupt
// frequency section reports 1 and stops the iterator.
func (it *BlockIterator) Count() uint32 {
	if !it.valid || !it.locateFreqs() || !it.counted {
		return 1
	}
	for cur := it.idx - 1; it.cIdx <= cur; it.cIdx++ {
		v, n := uvarint(it.b.enc, it.cOff)
		if n <= 0 || v > 0xFFFF_FFFE {
			it.fail(fmt.Errorf("postings: corrupt frequency at %d", it.cIdx))
			return 1
		}
		it.cOff += n
		it.cur = uint32(v) + 1
	}
	return it.cur
}

// MaxCount reports what the block bounds without being decoded: 1 for a
// boolean list (its frequency marker lies just past the ID section,
// reached in O(skipInterval)), NoMaxCount for a counted one — an exact
// maximum would read the whole frequency section, the traversal this
// iterator exists to avoid.
func (it *BlockIterator) MaxCount() uint32 {
	if !it.locateFreqs() || it.counted {
		return NoMaxCount
	}
	return 1
}
