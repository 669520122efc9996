package segment

import (
	"encoding/binary"
	"fmt"
	"sort"

	"desksearch/internal/postings"
)

// Iter streams one term's posting IDs straight off the raw block bytes,
// without materializing the list. SeekGE uses the block's skip table to
// jump within skipInterval postings of any target, which is what makes
// intersecting a rare term against a dense one sublinear in the dense
// list. The iterator reads the segment's storage directly, so it must not
// be used after the owning Reader is closed.
type Iter struct {
	enc   []byte // standard posting encoding (skip table stripped)
	skips []skipEntry
	count int

	idx   int    // postings consumed
	off   int    // next varint offset in enc
	prev  uint64 // last decoded ID
	valid bool
	err   error

	// Frequency-section state, located lazily on the first Count or
	// MaxCount call: the ID section's end is reached by skipping at most
	// skipInterval varints past the last skip entry, so locating costs
	// O(skipInterval) regardless of df.
	freqsLocated bool
	freqKind     byte // freqBoolean or freqCounted once located
	freqOff      int  // offset of the first count varint (counted lists)

	// Forward-only counts cursor: cIdx is the posting index the cursor
	// reads next, cOff its offset, cur the count at posting cIdx-1.
	cIdx int
	cOff int
	cur  uint32

	// notify, when set, reports a mid-stream corruption to the owning
	// reader (Reader.Iterator wires it to noteCorruption); the block
	// checksum passed at creation, so this only fires on encoder bugs.
	notify func(error)
}

// Frequency-section markers following the delta-coded IDs, per
// docs/FORMAT.md (internal/postings writes them as listBoolean /
// listCounted): freqBoolean means every frequency is 1 and no count
// bytes follow; freqCounted means one uvarint(frequency-1) per posting.
const (
	freqBoolean = 0
	freqCounted = 1
)

type skipEntry struct {
	id  uint64 // ids[(k+1)*skipInterval], absolute
	off int    // offset in enc just past that ID's varint
	idx int    // its posting index
}

// Iter returns a streaming iterator over term's postings, or nil if the
// term is absent. The block's checksum and skip table are verified; the
// postings themselves are validated as they stream (Next fails and Err
// reports on corruption). No posting is decoded up front.
func (r *Reader) Iter(term string) (*Iter, error) {
	ord := r.find(term)
	if ord < 0 {
		return nil, nil
	}
	return r.iterAt(ord)
}

// iterAt builds the streaming iterator for term ordinal ord.
func (r *Reader) iterAt(ord int) (*Iter, error) {
	e := &r.entries[ord]
	blk, err := r.block(e)
	if err != nil {
		return nil, err
	}

	c := &cursor{b: blk}
	skipN, err := skipCount(c, e.df)
	if err != nil {
		return nil, fmt.Errorf("segment: %s: term %q: %w", r.path, e.term, err)
	}
	skips := make([]skipEntry, 0, skipN)
	var sid uint64
	var soff int
	for k := uint64(0); k < skipN; k++ {
		sid += c.uvarint()
		soff += int(c.uvarint())
		skips = append(skips, skipEntry{id: sid, off: soff, idx: int(k+1) * skipInterval})
	}
	if c.err != nil {
		return nil, fmt.Errorf("segment: %s: term %q: corrupt skip table: %w", r.path, e.term, c.err)
	}
	enc := blk[c.off:]
	count, n := binary.Uvarint(enc)
	if n <= 0 || count != uint64(e.df) {
		return nil, fmt.Errorf("segment: %s: term %q: block count disagrees with dictionary", r.path, e.term)
	}
	for _, s := range skips {
		if s.off <= n || s.off > len(enc) || s.idx >= int(count) {
			return nil, fmt.Errorf("segment: %s: term %q: skip entry out of range", r.path, e.term)
		}
	}
	return &Iter{enc: enc, skips: skips, count: int(count), off: n}, nil
}

// Next advances to the next posting, returning false at the end of the
// list or on corruption (check Err to tell the two apart).
func (it *Iter) Next() bool {
	if it.err != nil || it.idx >= it.count {
		it.valid = false
		return false
	}
	delta, n := binary.Uvarint(it.enc[it.off:])
	if n <= 0 {
		it.fail(fmt.Errorf("segment: corrupt posting delta at index %d", it.idx))
		return false
	}
	if it.idx > 0 && delta == 0 {
		it.fail(fmt.Errorf("segment: duplicate posting id at index %d", it.idx))
		return false
	}
	it.off += n
	if it.idx == 0 {
		it.prev = delta
	} else {
		it.prev += delta
	}
	if it.prev > 0xFFFF_FFFF {
		it.fail(fmt.Errorf("segment: posting id %d overflows FileID", it.prev))
		return false
	}
	it.idx++
	it.valid = true
	return true
}

// SeekGE positions the iterator at the first posting with ID >= id —
// never moving backwards — and reports whether one exists.
func (it *Iter) SeekGE(id postings.FileID) bool {
	if it.err != nil {
		return false
	}
	if it.valid && it.prev >= uint64(id) {
		return true
	}
	// Jump to the last skip entry strictly below the target, if it is
	// ahead of the cursor; the target then lies within skipInterval
	// postings of the landing point.
	j := sort.Search(len(it.skips), func(k int) bool { return it.skips[k].id >= uint64(id) })
	if j > 0 && it.skips[j-1].idx+1 > it.idx {
		s := it.skips[j-1]
		it.prev, it.off, it.idx, it.valid = s.id, s.off, s.idx+1, true
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
func (it *Iter) ID() postings.FileID { return postings.FileID(it.prev) }

// Err returns the corruption that stopped iteration, if any.
func (it *Iter) Err() error { return it.err }

// fail records a corruption, invalidates the cursor, and reports the
// error to the owning reader when one is wired up.
func (it *Iter) fail(err error) {
	it.err = err
	it.valid = false
	if it.notify != nil {
		it.notify(err)
	}
}

// locateFreqs finds the frequency section without streaming the whole ID
// section: it jumps to the last skip entry (within skipInterval postings
// of the end) and skips the at most skipInterval-1 remaining ID varints.
// The cursor's own progress is used instead when it is further along.
func (it *Iter) locateFreqs() bool {
	if it.freqsLocated {
		return true
	}
	if it.err != nil {
		return false
	}
	off, idx := it.off, it.idx
	if n := len(it.skips); n > 0 {
		if s := it.skips[n-1]; s.idx+1 > idx {
			off, idx = s.off, s.idx+1
		}
	}
	for ; idx < it.count; idx++ {
		_, n := binary.Uvarint(it.enc[off:])
		if n <= 0 {
			it.fail(fmt.Errorf("segment: corrupt posting delta at index %d", idx))
			return false
		}
		off += n
	}
	if off >= len(it.enc) {
		it.fail(fmt.Errorf("segment: posting block truncated before frequency marker"))
		return false
	}
	kind := it.enc[off]
	if kind != freqBoolean && kind != freqCounted {
		it.fail(fmt.Errorf("segment: unknown frequency marker %d", kind))
		return false
	}
	it.freqKind = kind
	it.freqOff = off + 1
	it.cIdx, it.cOff = 0, it.freqOff
	it.freqsLocated = true
	return true
}

// Count returns the current posting's term frequency; valid only after a
// true Next/SeekGE. The counts cursor is forward-only and advances in
// step with the postings actually asked about, so a scoring pass over a
// selective match set reads each count varint at most once. A corrupt
// frequency section reports 1 and poisons the iterator (Err).
func (it *Iter) Count() uint32 {
	if !it.valid || !it.locateFreqs() {
		return 1
	}
	if it.freqKind == freqBoolean {
		return 1
	}
	cur := it.idx - 1 // index of the posting the cursor is on
	for it.cIdx <= cur {
		v, n := binary.Uvarint(it.enc[it.cOff:])
		if n <= 0 || v >= 0xFFFF_FFFF {
			it.fail(fmt.Errorf("segment: corrupt frequency at index %d", it.cIdx))
			return 1
		}
		it.cOff += n
		it.cIdx++
		it.cur = uint32(v) + 1
	}
	return it.cur
}

// Len returns the term's document frequency (the block's posting count).
func (it *Iter) Len() int { return it.count }

// MaxCount reports what the raw block can bound without being decoded: 1
// for boolean lists (the frequency marker is a single byte past the ID
// section, reached in O(skipInterval)), postings.NoMaxCount for counted
// lists — an exact maximum would read the whole frequency section, the
// kind of full traversal this iterator exists to avoid.
func (it *Iter) MaxCount() uint32 {
	if !it.locateFreqs() {
		return postings.NoMaxCount
	}
	if it.freqKind == freqBoolean {
		return 1
	}
	return postings.NoMaxCount
}
