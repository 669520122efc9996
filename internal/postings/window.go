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

// Window is List.Window over the list the block's full decode would
// return, read in place: it allocates nothing and parses only what the
// windows reach. It reads the ID section, merged against files, and stops
// there when no posting is asked for; otherwise it reads the frequency
// section, then walks the position runs up to the last asked-for posting,
// skipping the others' bytes and decoding an asked-for run only up to its
// window's end. What it parses it validates as DecodePositional does, so
// whenever Decode(true) accepts the block, Window emits exactly what
// List.Window over the decoded list emits; a fault in what it reads is its
// error. Bytes it does not reach are not checked: the caller verifies the
// block (a segment block's checksum) before parsing it. A block without
// positions emits nothing.
func (b *Block) Window(files []FileID, lo, hi []uint32, emit func(i int, pos uint32)) error {
	if !b.positional || len(files) == 0 {
		return nil
	}
	buf, count, start := b.enc, uint64(b.count), b.start

	// The ID section, merged against files: last becomes the index of the
	// last posting a window asks for, and off the frequency marker's.
	final := uint64(files[len(files)-1])
	last := -1
	off, id := start, uint64(0)
	for j, fi := uint64(0), 0; j < count; j++ {
		var ok bool
		if off, id, ok = nextID(buf, off, j, id); !ok {
			return fmt.Errorf("postings: corrupt, repeated or overflowing id at %d", j)
		}
		if id < uint64(files[fi]) {
			continue
		}
		if id > final {
			if last < 0 {
				return nil
			}
			var err error
			if off, err = skipUvarints(buf, off, count-j-1); err != nil {
				return err
			}
			break
		}
		if fi = Gallop(files, fi, FileID(id)); files[fi] == FileID(id) {
			last = int(j)
		}
	}
	if last < 0 {
		return nil
	}

	if off >= len(buf) {
		return fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	freqOff := off
	switch marker {
	case listBoolean:
	case listCounted:
		for j := uint64(0); j < count; j++ {
			c, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return fmt.Errorf("postings: corrupt frequency at %d", j)
			}
			if c > 0xFFFF_FFFE {
				return fmt.Errorf("postings: frequency %d overflows at %d", c, j)
			}
			off += n
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

	// The runs up to the last asked-for posting, with the ID and frequency
	// sections re-read in step (both validated above). skip counts the
	// position varints of the runs passed over since the last asked-for
	// one, skipped in one go.
	idOff, id, fi, skip := start, uint64(0), 0, uint64(0)
	for j := 0; j <= last; j++ {
		idOff, id, _ = nextID(buf, idOff, uint64(j), id)
		run := uint64(1)
		if marker == listCounted {
			c, n := binary.Uvarint(buf[freqOff:])
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
		skip = 0
		var p uint64
		for k := uint64(0); k < run; k++ {
			delta, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return fmt.Errorf("postings: corrupt position at posting %d", j)
			}
			off += n
			if k > 0 && delta == 0 {
				return fmt.Errorf("postings: zero position delta at posting %d (duplicate position)", j)
			}
			if delta > 0xFFFF_FFFF || p+delta > 0xFFFF_FFFF {
				return fmt.Errorf("postings: position overflows at posting %d", j)
			}
			p += delta
			if p > uint64(hi[fi]) {
				if j == last {
					return nil
				}
				skip = run - k - 1
				break
			}
			if p >= uint64(lo[fi]) {
				emit(fi, uint32(p))
			}
		}
	}
	return nil
}

// nextID decodes posting j's ID-section varint at off, prev being posting
// j-1's ID (0 before the first), and returns the offset past it, the ID,
// and whether the varint is whole and the ID ascends within range, as
// the decoders require. It is the one ID step of every in-place read: the
// window pass's and BlockIterator's.
func nextID(buf []byte, off int, j, prev uint64) (int, uint64, bool) {
	delta, n := binary.Uvarint(buf[off:])
	id := prev + delta
	return off + n, id, n > 0 && (j == 0 || delta > 0) && delta <= 0xFFFF_FFFF && id <= 0xFFFF_FFFF
}

// skipUvarints returns the offset just past the n uvarints starting at off.
// A uvarint ends at its one byte below 0x80, so while more than eight ends
// remain it counts them a word at a time: skipping the position runs
// before a page's file is most of the window pass on a long list.
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
