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
// the number of bytes consumed.
func Decode(buf []byte) (*List, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("postings: corrupt count")
	}
	if count > uint64(len(buf)) { // each posting takes ≥1 byte
		return nil, 0, fmt.Errorf("postings: count %d exceeds buffer", count)
	}
	off := n
	l := &List{ids: make([]FileID, 0, count)}
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
		l.ids = append(l.ids, FileID(id))
		prev = id
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	switch marker {
	case listBoolean:
	case listCounted:
		l.counts = make([]uint32, 0, count)
		for i := uint64(0); i < count; i++ {
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

// DecodePositional parses a list encoded by EncodePositional from buf,
// returning the list and the number of bytes consumed. Position runs are
// validated like the ID section: strictly ascending (a zero delta after
// the first is a duplicate), bounded, and capped against the buffer so a
// corrupt frequency section cannot force an absurd allocation.
func DecodePositional(buf []byte) (*List, int, error) {
	l, off, err := Decode(buf)
	if err != nil {
		return nil, 0, err
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing positions marker")
	}
	marker := buf[off]
	off++
	switch marker {
	case posAbsent:
		return l, off, nil
	case posPresent:
		// Snapshot the frequencies before installing position storage:
		// CountAt derives from positions once they exist, and the slots are
		// still empty here.
		counts := make([]int, len(l.ids))
		for i := range l.ids {
			counts[i] = int(l.CountAt(i))
		}
		l.positions = make([][]uint32, len(l.ids))
		for i := range l.ids {
			count := counts[i]
			if count > len(buf)-off { // each position takes ≥1 byte
				return nil, 0, fmt.Errorf("postings: position count %d at posting %d exceeds buffer", count, i)
			}
			p := make([]uint32, 0, count)
			var prev uint64
			for k := 0; k < count; k++ {
				delta, n := binary.Uvarint(buf[off:])
				if n <= 0 {
					return nil, 0, fmt.Errorf("postings: corrupt position at posting %d", i)
				}
				off += n
				var v uint64
				if k == 0 {
					v = delta
				} else {
					if delta == 0 {
						return nil, 0, fmt.Errorf("postings: zero position delta at posting %d (duplicate position)", i)
					}
					v = prev + delta
				}
				if v > 0xFFFF_FFFF {
					return nil, 0, fmt.Errorf("postings: position %d overflows at posting %d", v, i)
				}
				p = append(p, uint32(v))
				prev = v
			}
			l.positions[i] = p
		}
		// Positions are authoritative for frequencies from here on.
		l.counts = nil
		return l, off, nil
	default:
		return nil, 0, fmt.Errorf("postings: unknown positions marker %d", marker)
	}
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
