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
	dst = binary.AppendUvarint(dst, uint64(len(l.ids)))
	prev := FileID(0)
	for i, id := range l.ids {
		delta := uint64(id - prev)
		if i == 0 {
			delta = uint64(id)
		}
		dst = binary.AppendUvarint(dst, delta)
		prev = id
	}
	return l.encodeFreqs(dst)
}

// encodeFreqs appends the frequency section. A positional list derives its
// frequencies from the position runs (counts is never populated alongside
// positions); the non-positional paths are byte-for-byte the pre-positions
// encoding.
func (l *List) encodeFreqs(dst []byte) []byte {
	if l.positions != nil {
		allOnes := true
		for _, p := range l.positions {
			if len(p) != 1 {
				allOnes = false
				break
			}
		}
		if allOnes {
			return append(dst, listBoolean)
		}
		dst = append(dst, listCounted)
		for _, p := range l.positions {
			n := len(p)
			if n == 0 {
				n = 1
			}
			dst = binary.AppendUvarint(dst, uint64(n-1))
		}
		return dst
	}
	if l.counts == nil {
		return append(dst, listBoolean)
	}
	dst = append(dst, listCounted)
	for _, c := range l.counts {
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
	if l.positions == nil {
		return append(dst, posAbsent)
	}
	dst = append(dst, posPresent)
	for _, p := range l.positions {
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
func Decode(buf []byte) (*List, int, error) {
	ids, off, err := decodeIDs(buf)
	if err != nil {
		return nil, 0, err
	}
	l := &List{ids: ids}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	switch marker {
	case listBoolean:
	case listCounted:
		l.counts = make([]uint32, 0, len(ids))
		for i := range ids {
			c, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("postings: corrupt frequency at %d", i)
			}
			if c > 0xFFFF_FFFE {
				return nil, 0, fmt.Errorf("postings: frequency %d overflows at %d", c, i)
			}
			off += n
			l.counts = append(l.counts, uint32(c)+1)
		}
		l.normalize()
	default:
		return nil, 0, fmt.Errorf("postings: unknown frequency marker %d", marker)
	}
	return l, off, nil
}

// decodeIDs parses the count and the delta-coded ID section every
// encoding starts with, returning the IDs and the offset of the frequency
// marker.
func decodeIDs(buf []byte) ([]FileID, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("postings: corrupt count")
	}
	if count > uint64(len(buf)) { // each posting takes ≥1 byte
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
		if id > 0xFFFF_FFFF {
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
// All positions land in one flat slice and each posting gets a capped
// subslice of it, so a decoded list costs four allocations (the list, its
// IDs, the subslice headers, the positions) however many postings it has.
// The frequency section is read twice — once to size the flat slice, once
// as the run lengths while the positions stream — instead of being
// materialized: a positional list derives its frequencies from its runs.
func DecodePositional(buf []byte) (*List, int, error) {
	ids, off, err := decodeIDs(buf)
	if err != nil {
		return nil, 0, err
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	if marker != listBoolean && marker != listCounted {
		return nil, 0, fmt.Errorf("postings: unknown frequency marker %d", marker)
	}
	freqOff := off
	total := uint64(len(ids))
	if marker == listCounted {
		total = 0
		for i := range ids {
			c, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("postings: corrupt frequency at %d", i)
			}
			if c > 0xFFFF_FFFE {
				return nil, 0, fmt.Errorf("postings: frequency %d overflows at %d", c, i)
			}
			off += n
			total += c + 1
			if total > uint64(len(buf)) { // each position takes ≥1 byte
				return nil, 0, fmt.Errorf("postings: position count %d at posting %d exceeds buffer", total, i)
			}
		}
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing positions marker")
	}
	posMarker := buf[off]
	off++
	switch posMarker {
	case posAbsent:
		l, _, err := Decode(buf)
		return l, off, err
	case posPresent:
	default:
		return nil, 0, fmt.Errorf("postings: unknown positions marker %d", posMarker)
	}
	if total > uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("postings: position count %d exceeds buffer", total)
	}
	flat := make([]uint32, 0, total)
	positions := make([][]uint32, len(ids))
	for i := range ids {
		count := 1
		if marker == listCounted {
			c, n := binary.Uvarint(buf[freqOff:]) // validated by the sizing pass
			freqOff += n
			count = int(c) + 1
		}
		start := len(flat)
		var prev uint64
		for k := 0; k < count; k++ {
			delta, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("postings: corrupt position at posting %d", i)
			}
			off += n
			v := delta
			if k > 0 {
				if delta == 0 {
					return nil, 0, fmt.Errorf("postings: zero position delta at posting %d (duplicate position)", i)
				}
				v = prev + delta
			}
			if v > 0xFFFF_FFFF {
				return nil, 0, fmt.Errorf("postings: position %d overflows at posting %d", v, i)
			}
			flat = append(flat, uint32(v))
			prev = v
		}
		// Capped, so an append through one posting's run (AddPositions,
		// a merge) reallocates instead of overwriting its neighbour's.
		positions[i] = flat[start:len(flat):len(flat)]
	}
	return &List{ids: ids, positions: positions}, off, nil
}

// EncodedSize returns the exact number of bytes Encode will produce.
func (l *List) EncodedSize() int {
	size := uvarintLen(uint64(len(l.ids)))
	prev := FileID(0)
	for i, id := range l.ids {
		delta := uint64(id - prev)
		if i == 0 {
			delta = uint64(id)
		}
		size += uvarintLen(delta)
		prev = id
	}
	size++ // frequency marker
	if l.positions != nil {
		if l.hasMultiOccurrence() {
			for i := range l.positions {
				size += uvarintLen(uint64(l.CountAt(i) - 1))
			}
		}
		return size
	}
	for _, c := range l.counts {
		size += uvarintLen(uint64(c - 1))
	}
	return size
}

// hasMultiOccurrence reports whether any posting of a positional list
// occurs more than once — the condition under which Encode emits an
// explicit frequency section.
func (l *List) hasMultiOccurrence() bool {
	for _, p := range l.positions {
		if len(p) > 1 {
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
