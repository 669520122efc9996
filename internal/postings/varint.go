package postings

import (
	"encoding/binary"
	"fmt"
)

// Frequency-section markers following the delta-coded IDs: listBoolean
// means every posting has frequency 1 and no count bytes follow;
// listCounted means one uvarint(frequency-1) per posting follows.
const (
	listBoolean = 0
	listCounted = 1
)

// Positions-section markers, used only by the positional encoding
// (EncodePositional / DecodePositional — see docs/FORMAT.md): posAbsent means the list carries no positions and no
// position bytes follow; posPresent means each posting is followed by its
// delta-coded position run, whose length is that posting's frequency from
// the frequency section.
const (
	posAbsent  = 0
	posPresent = 1
)

// Encode appends a compact encoding of the list to dst and returns it:
// a uvarint count, uvarint deltas between consecutive IDs, then a
// frequency-section marker and — for counted lists — uvarint(frequency-1)
// per posting. Delta coding exploits the sorted invariant; small gaps
// dominate in dense posting lists, making most deltas one byte, and the
// frequency-1 bias makes the overwhelmingly common single-occurrence
// posting cost one zero byte.
func (l *List) Encode(dst []byte) []byte {
	return l.encodeFreqs(AppendIDs(dst, l.ids))
}

// AppendIDs appends the ID section every encoding starts with — a uvarint
// count, then the first ID and the uvarint gaps between consecutive ones —
// for ids ascending and duplicate-free. A segment's document set is one
// too; DecodeIDs reads it back.
func AppendIDs(dst []byte, ids []FileID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := FileID(0)
	for i, id := range ids {
		delta := uint64(id - prev)
		if i == 0 {
			delta = uint64(id)
		}
		dst = binary.AppendUvarint(dst, delta)
		prev = id
	}
	return dst
}

// encodeFreqs appends the frequency section. A positional list derives its
// frequencies from its run lengths; the non-positional paths are
// byte-for-byte the pre-positions encoding.
func (l *List) encodeFreqs(dst []byte) []byte {
	if l.pos != nil {
		if !l.hasMultiOccurrence() {
			return append(dst, listBoolean)
		}
		dst = append(dst, listCounted)
		for i := range l.ids {
			dst = binary.AppendUvarint(dst, uint64(l.CountAt(i)-1))
		}
		return dst
	}
	if l.vals == nil {
		return append(dst, listBoolean)
	}
	dst = append(dst, listCounted)
	for _, c := range l.vals {
		dst = binary.AppendUvarint(dst, uint64(c-1))
	}
	return dst
}

// EncodePositional appends the positional encoding of the list to dst and
// returns it: the base Encode form followed by a positions section — a
// posAbsent/posPresent marker and, when present, each posting's positions
// delta-coded (first absolute, then gaps, exactly like the ID section),
// with the run length implied by the posting's frequency. Only positional
// indexes use this form; the rest keep the base encoding.
func (l *List) EncodePositional(dst []byte) []byte {
	dst = l.Encode(dst)
	if l.pos == nil {
		return append(dst, posAbsent)
	}
	dst = append(dst, posPresent)
	for i := range l.ids {
		p := l.PositionsAt(i)
		prev := uint32(0)
		for i, v := range p {
			delta := uint64(v - prev)
			if i == 0 {
				delta = uint64(v)
			}
			dst = binary.AppendUvarint(dst, delta)
			prev = v
		}
	}
	return dst
}

// Decode parses a list encoded by Encode from buf, returning the list and
// the number of bytes consumed. It stops at the end of the frequency
// section: handed a positional encoding it returns the IDs and
// frequencies and leaves the positions section unread, which is what lets
// a reader that needs no positions skip the largest part of a block.
func Decode(buf []byte) (*List, int, error) { return onHeap(decode(buf)) }

// onHeap returns a decode's list as a pointer, or its error.
func onHeap(l List, n int, err error) (*List, int, error) {
	if err != nil {
		return nil, 0, err
	}
	return &l, n, nil
}

// decode is Decode returning the list by value, for Block.DecodeInto.
func decode(buf []byte) (List, int, error) {
	ids, off, err := DecodeIDs(buf)
	if err != nil {
		return List{}, 0, err
	}
	l := List{ids: ids}
	if off >= len(buf) {
		return List{}, 0, fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	switch marker {
	case listBoolean:
	case listCounted:
		if l.vals, off, err = decodeFreqs(buf, off, len(ids)); err != nil {
			return List{}, 0, err
		}
		l.normalize()
	default:
		return List{}, 0, fmt.Errorf("postings: unknown frequency marker %d", marker)
	}
	return l, off, nil
}

// decodeFreqs parses the n uvarint(frequency-1) entries of a counted
// list's frequency section at off, returning the frequencies and the
// offset past them.
func decodeFreqs(buf []byte, off, n int) ([]uint32, int, error) {
	vals := make([]uint32, n)
	for i := range vals {
		c, m := binary.Uvarint(buf[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("postings: corrupt frequency at %d", i)
		}
		if c > 0xFFFF_FFFE {
			return nil, 0, fmt.Errorf("postings: frequency %d overflows at %d", c, i)
		}
		off += m
		vals[i] = uint32(c) + 1
	}
	return vals, off, nil
}

// DecodeIDs parses an ID section AppendIDs wrote at the start of buf,
// returning the IDs and the offset just past them (in a list encoding, of
// the frequency marker). The count is held to the bytes that could back
// it, and a zero gap or an ID past the FileID range is corruption.
func DecodeIDs(buf []byte) ([]FileID, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("postings: corrupt count")
	}
	if count > uint64(len(buf)-n) { // each ID takes ≥1 byte after the count
		return nil, 0, fmt.Errorf("postings: count %d exceeds buffer", count)
	}
	off := n
	ids := make([]FileID, 0, count)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("postings: corrupt delta at %d", i)
		}
		off += n
		var id uint64
		if i == 0 {
			id = delta
		} else {
			id = prev + delta
			if delta == 0 {
				return nil, 0, fmt.Errorf("postings: zero delta at %d (duplicate id)", i)
			}
		}
		// A delta past the ID range would wrap the sum into it.
		if delta > 0xFFFF_FFFF || id > 0xFFFF_FFFF {
			return nil, 0, fmt.Errorf("postings: id %d overflows FileID", id)
		}
		ids = append(ids, FileID(id))
		prev = id
	}
	return ids, off, nil
}

// DecodePositional parses a list encoded by EncodePositional from buf,
// returning the list and the number of bytes consumed. Position runs are
// validated like the ID section: strictly ascending (a zero delta after
// the first is a duplicate), bounded, and capped against the buffer so a
// corrupt frequency section cannot force an absurd allocation.
//
// The decode fills the list's columns directly: the IDs, then one run end
// per posting and every position back to back, both in one allocation, so
// a decoded list costs three allocations (those two and the list) and four
// bytes per ID, run end and position, however many postings it has. The
// frequency section is read twice — once to size the position column, once
// as the run lengths while the positions stream — instead of being
// materialized: a positional list derives its frequencies from its runs.
func DecodePositional(buf []byte) (*List, int, error) { return onHeap(decodePositional(buf)) }

// decodePositional is DecodePositional returning the list by value.
func decodePositional(buf []byte) (List, int, error) {
	ids, off, err := DecodeIDs(buf)
	if err != nil {
		return List{}, 0, err
	}
	if off >= len(buf) {
		return List{}, 0, fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	if marker != listBoolean && marker != listCounted {
		return List{}, 0, fmt.Errorf("postings: unknown frequency marker %d", marker)
	}
	freqOff := off
	total := uint64(len(ids))
	if marker == listCounted {
		total = 0
		for i := range ids {
			c, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return List{}, 0, fmt.Errorf("postings: corrupt frequency at %d", i)
			}
			if c > 0xFFFF_FFFE {
				return List{}, 0, fmt.Errorf("postings: frequency %d overflows at %d", c, i)
			}
			off += n
			total += c + 1 // at most len(buf) postings of at most 2^32: no overflow
		}
	}
	if off >= len(buf) {
		return List{}, 0, fmt.Errorf("postings: missing positions marker")
	}
	posMarker := buf[off]
	off++
	switch posMarker {
	case posAbsent:
		l := List{ids: ids}
		if marker == listCounted {
			if l.vals, _, err = decodeFreqs(buf, freqOff, len(ids)); err != nil {
				return List{}, 0, err
			}
			l.normalize()
		}
		return l, off, nil
	case posPresent:
	default:
		return List{}, 0, fmt.Errorf("postings: unknown positions marker %d", posMarker)
	}
	if total > uint64(len(buf)-off) {
		return List{}, 0, fmt.Errorf("postings: position count %d exceeds buffer", total)
	}
	// One allocation, capped so that an append to either column moves it.
	cols := make([]uint32, len(ids)+int(total))
	ends := cols[:len(ids):len(ids)]
	flat := cols[len(ids):len(ids)]
	for i := range ids {
		count := 1
		if marker == listCounted {
			c, n := binary.Uvarint(buf[freqOff:]) // validated by the sizing pass
			freqOff += n
			count = int(c) + 1
		}
		var prev uint64
		for k := 0; k < count; k++ {
			delta, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return List{}, 0, fmt.Errorf("postings: corrupt position at posting %d", i)
			}
			off += n
			v := delta
			if k > 0 {
				if delta == 0 {
					return List{}, 0, fmt.Errorf("postings: zero position delta at posting %d (duplicate position)", i)
				}
				v = prev + delta
			}
			if delta > 0xFFFF_FFFF || v > 0xFFFF_FFFF {
				return List{}, 0, fmt.Errorf("postings: position %d overflows at posting %d", v, i)
			}
			flat = append(flat, uint32(v))
			prev = v
		}
		ends[i] = uint32(len(flat))
	}
	return List{ids: ids, vals: ends, pos: flat}, off, nil
}

// hasMultiOccurrence reports whether any posting of a positional list
// occurs more than once — the condition under which Encode emits an
// explicit frequency section.
func (l *List) hasMultiOccurrence() bool {
	for i := range l.ids {
		if l.CountAt(i) > 1 {
			return true
		}
	}
	return false
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
