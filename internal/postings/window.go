package postings

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Window calls emit(i, p) for every position p in [lo[i], hi[i]] at which
// the list's term occurs in file files[i]: files strictly ascending, lo and
// hi parallel to it. Calls come in ascending file order, then ascending
// position. A list without positions emits nothing. The shorter of files
// and the list's IDs drives, galloping through the longer, and each
// matched run is galloped to lo, so a short page over a long list costs a
// few searches and a long page over a short list one search per posting.
func (l *List) Window(files []FileID, lo, hi []uint32, emit func(i int, pos uint32)) {
	ids := l.ids
	if l.pos == nil || len(ids) == 0 || len(files) == 0 ||
		ids[len(ids)-1] < files[0] || ids[0] > files[len(files)-1] {
		return
	}
	if len(files) <= len(ids) {
		j := 0
		for i, f := range files {
			if j = Gallop(ids, j, f); j == len(ids) {
				return
			}
			if ids[j] == f {
				windowRun(l.PositionsAt(j), i, lo[i], hi[i], emit)
			}
		}
		return
	}
	i := 0
	for j, id := range ids {
		if i = Gallop(files, i, id); i == len(files) {
			return
		}
		if files[i] == id {
			windowRun(l.PositionsAt(j), i, lo[i], hi[i], emit)
		}
	}
}

// windowRun emits file i's positions of run that lie in [lo, hi].
func windowRun(run []uint32, i int, lo, hi uint32, emit func(i int, pos uint32)) {
	for k := Gallop(run, 0, lo); k < len(run) && run[k] <= hi; k++ {
		emit(i, run[k])
	}
}

// windowMatches is how many asked-for postings a block's window pass
// keeps on its stack: a page's files, one posting each at most.
const windowMatches = 16

// Window is List.Window over the list the block's full decode would
// return, read in place: it allocates nothing and parses only what the
// windows reach, each section once. The ID section, merged against files
// (both ascend, so files advance linearly), records each asked-for
// posting's index and file in a fixed array on the stack, and the pass
// stops there when none is asked for. The frequency section, every
// frequency validated, sums the runs between asked-for postings into the
// position varints to skip before each. The positions section then skips
// to each asked-for run and decodes it only up to its window's end. An
// ID takes the one- and two-byte step in place (shortUvarint), a longer
// varint nextID. A block asking for more than windowMatches postings — a
// page of more files than that — reads the positions by re-walking the
// two sections (windowRewalk). What it parses it validates as
// DecodePositional does, so whenever Decode(true) accepts the block,
// Window emits exactly what List.Window over the decoded list emits; a
// fault in what it reads is its error. Bytes it does not reach are not
// checked: the caller verifies the block (a segment block's checksum)
// before parsing it. A block without positions emits nothing.
func (b *Block) Window(files []FileID, lo, hi []uint32, emit func(i int, pos uint32)) error {
	if !b.positional || len(files) == 0 {
		return nil
	}
	// Most blocks of a dictionary pass hold none of a page's files: they
	// end at the first posting not below them.
	j, off, id, fi, err := b.mergeIDs(files, 0, b.start, 0, 0)
	if err != nil || j == b.count || id != uint64(files[fi]) {
		return err
	}
	return b.windowFrom(files, lo, hi, emit, j, off, id, fi)
}

// mergeIDs reads the ID section from posting j, at off after ID id,
// merged against files from fi on, up to the first posting whose ID is
// one of files or past them all: it returns that posting's index, the
// offset past its varint, its ID and the index of its file (the last file
// when the ID is past them all), or count when the section ends first.
func (b *Block) mergeIDs(files []FileID, j, off int, id uint64, fi int) (int, int, uint64, int, error) {
	buf, f := b.enc, uint64(files[fi])
	for ; j < b.count; j++ {
		if d, n := shortUvarint(buf, off); n > 0 && d > 0 && id+d <= 0xFFFF_FFFF {
			off, id = off+n, id+d
		} else {
			var ok bool
			if off, id, ok = nextID(buf, off, uint64(j), id); !ok {
				return 0, 0, 0, 0, fmt.Errorf("postings: corrupt, repeated or overflowing id at %d", j)
			}
		}
		if id < f {
			continue
		}
		for fi < len(files)-1 && id > f {
			fi++
			f = uint64(files[fi])
		}
		if id >= f {
			break
		}
	}
	return j, off, id, fi, nil
}

// windowFrom is Window from its first asked-for posting j, files[fi], whose
// ID varint ends at off.
func (b *Block) windowFrom(files []FileID, lo, hi []uint32, emit func(i int, pos uint32), j, off int, id uint64, fi int) error {
	buf, count := b.enc, b.count

	// The rest of the ID section. match[m] is the m-th asked-for posting:
	// its index j and file index fi, then (from the frequency section)
	// the position varints between it and the one before, and its run's
	// length.
	var match [windowMatches]struct {
		j, fi     int
		skip, run uint64
	}
	nm, last := 0, 0
	for j < count && id == uint64(files[fi]) {
		if nm < windowMatches {
			match[nm].j, match[nm].fi = j, fi
		}
		nm, last = nm+1, j
		var err error
		if j, off, id, fi, err = b.mergeIDs(files, j+1, off, id, fi); err != nil {
			return err
		}
	}
	if j < count { // an ID past the last file: skip the section's rest
		var err error
		if off, err = skipUvarints(buf, off, uint64(count-j-1)); err != nil {
			return err
		}
	}

	// The frequency section, every entry validated; a boolean list's runs
	// are all one long.
	if off >= len(buf) {
		return fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	freqOff := off
	switch marker {
	case listBoolean:
		prev := -1
		for m := range min(nm, windowMatches) {
			match[m].skip, match[m].run = uint64(match[m].j-prev-1), 1
			prev = match[m].j
		}
	case listCounted:
		m, since := 0, uint64(0)
		for j := 0; j < count; j++ {
			c, n := uvarint(buf, off)
			if n <= 0 {
				return fmt.Errorf("postings: corrupt frequency at %d", j)
			}
			if c > 0xFFFF_FFFE {
				return fmt.Errorf("postings: frequency %d overflows at %d", c, j)
			}
			off += n
			if m < windowMatches && m < nm && match[m].j == j {
				match[m].skip, match[m].run = since, c+1
				m, since = m+1, 0
			} else {
				since += c + 1
			}
		}
	default:
		return fmt.Errorf("postings: unknown frequency marker %d", marker)
	}
	if off >= len(buf) {
		return fmt.Errorf("postings: missing positions marker")
	}
	switch buf[off] {
	case posAbsent:
		return nil
	case posPresent:
	default:
		return fmt.Errorf("postings: unknown positions marker %d", buf[off])
	}
	off++
	if nm > windowMatches {
		return b.windowRewalk(buf, off, freqOff, marker, last, files, lo, hi, emit)
	}

	// The positions section: rest counts the varints left of the run
	// before, where its window ended.
	rest := uint64(0)
	for _, mt := range match[:nm] {
		var err error
		if off, err = skipUvarints(buf, off, rest+mt.skip); err != nil {
			return err
		}
		if off, rest, err = windowPositions(buf, off, mt.run, mt.j, mt.fi, lo[mt.fi], hi[mt.fi], emit); err != nil {
			return err
		}
	}
	return nil
}

// windowRewalk is Window's positions pass for a block asking for more
// postings than Window keeps: it re-reads the ID and frequency sections,
// both validated by then, from the block's start and from freqOff, in
// step with the position runs at off, up to posting last, galloping
// through files for each posting.
func (b *Block) windowRewalk(buf []byte, off, freqOff int, marker byte, last int, files []FileID, lo, hi []uint32, emit func(i int, pos uint32)) error {
	idOff, id, fi, skip := b.start, uint64(0), 0, uint64(0)
	for j := 0; j <= last; j++ {
		idOff, id, _ = nextID(buf, idOff, uint64(j), id)
		run := uint64(1)
		if marker == listCounted {
			c, n := uvarint(buf, freqOff)
			freqOff += n
			run = c + 1
		}
		if fi = Gallop(files, fi, FileID(id)); fi == len(files) || files[fi] != FileID(id) {
			skip += run
			continue
		}
		var err error
		if off, err = skipUvarints(buf, off, skip); err != nil {
			return err
		}
		if off, skip, err = windowPositions(buf, off, run, j, fi, lo[fi], hi[fi], emit); err != nil {
			return err
		}
	}
	return nil
}

// windowPositions emits, as file i's, the positions in [lo, hi] of
// posting j's run of n delta-coded positions at off. It stops at the
// first position past hi and returns the offset it read to and how many
// of the run's varints lie past it.
func windowPositions(buf []byte, off int, n uint64, j, i int, lo, hi uint32, emit func(i int, pos uint32)) (int, uint64, error) {
	var p uint64
	for k := uint64(0); k < n; k++ {
		delta, m := uvarint(buf, off)
		if m <= 0 {
			return 0, 0, fmt.Errorf("postings: corrupt position at posting %d", j)
		}
		off += m
		if k > 0 && delta == 0 {
			return 0, 0, fmt.Errorf("postings: zero position delta at posting %d (duplicate position)", j)
		}
		if delta > 0xFFFF_FFFF || p+delta > 0xFFFF_FFFF {
			return 0, 0, fmt.Errorf("postings: position overflows at posting %d", j)
		}
		p += delta
		if p > uint64(hi) {
			return off, n - k - 1, nil
		}
		if p >= uint64(lo) {
			emit(i, uint32(p))
		}
	}
	return off, 0, nil
}

// shortUvarint decodes the uvarint at buf[off:] when it takes one or two
// bytes and another byte follows it, as every ID varint of a well-formed
// encoding has (its frequency marker comes after): its value and byte
// count, or a count of 0. It is the hand-placed half of the ID step that
// Window's ID pass and BlockIterator's walk take per posting, small
// enough to compile in place; a delta it does not take — a longer varint,
// a zero, one that would carry the ID past FileID's range, the end of
// buf — goes through nextID, which reports the fault.
func shortUvarint(buf []byte, off int) (uint64, int) {
	if off+1 < len(buf) {
		if b0 := buf[off]; b0 < 0x80 {
			return uint64(b0), 1
		} else if b1 := buf[off+1]; b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		}
	}
	return 0, 0
}

// nextID decodes posting j's ID-section varint at off, prev being posting
// j-1's ID (0 before the first), and returns the offset past it, the ID,
// and whether the varint is whole and the ID ascends within range, as
// the decoders require. It is the full ID step: the fallback of the
// hand-placed one (shortUvarint) and the step of Window's re-walk. Its
// varint is the kernel's (uvarint), compiled in place; nextID itself is
// over the inliner's budget, which is why the per-posting loops try
// shortUvarint first.
func nextID(buf []byte, off int, j, prev uint64) (int, uint64, bool) {
	delta, n := uvarint(buf, off)
	id := prev + delta
	return off + n, id, n > 0 && (j == 0 || delta > 0) && delta <= 0xFFFF_FFFF && id <= 0xFFFF_FFFF
}

// skipUvarints returns the offset just past the n uvarints starting at off.
// A uvarint ends at its one byte below 0x80, so while more than eight ends
// remain it counts them a word at a time: skipping the position runs
// before a page's file is most of the window pass on a long list. It is
// the one posting read that decodes no value, so the only one that does
// not go through uvarint; decodeRun reads the same words for their
// values.
func skipUvarints(buf []byte, off int, n uint64) (int, error) {
	for off+8 <= len(buf) {
		ends := uint64(bits.OnesCount64(^binary.LittleEndian.Uint64(buf[off:]) & 0x8080_8080_8080_8080))
		if ends >= n {
			break
		}
		off, n = off+8, n-ends
	}
	for ; n > 0; n-- {
		for off < len(buf) && buf[off] >= 0x80 {
			off++
		}
		if off >= len(buf) {
			return 0, fmt.Errorf("postings: truncated varint at %d", off)
		}
		off++
	}
	return off, nil
}
