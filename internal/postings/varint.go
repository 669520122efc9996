package postings

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
		c, m := uvarint(buf, off)
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
	count, n := uvarint(buf, 0)
	if n <= 0 {
		return nil, 0, fmt.Errorf("postings: corrupt count")
	}
	if count > uint64(len(buf)-n) { // each ID takes ≥1 byte after the count
		return nil, 0, fmt.Errorf("postings: count %d exceeds buffer", count)
	}
	off := n
	ids := make([]FileID, count)
	var prev uint64
	for i := range ids {
		delta, n := uvarint(buf, off)
		if n <= 0 {
			return nil, 0, fmt.Errorf("postings: corrupt delta at %d", i)
		}
		off += n
		id := prev + delta
		if i > 0 && delta == 0 {
			return nil, 0, fmt.Errorf("postings: zero delta at %d (duplicate id)", i)
		}
		// A delta past the ID range would wrap the sum into it.
		if delta > 0xFFFF_FFFF || id > 0xFFFF_FFFF {
			return nil, 0, fmt.Errorf("postings: id %d overflows FileID", id)
		}
		ids[i] = FileID(id)
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
//
// Every varint goes through the package's one kernel, uvarint, and each
// position run is read a little-endian word at a time, its one- and
// two-byte deltas summed straight into the column (decodeRun): a lazy
// segment's phrase walk and snippet anchors pay this decode on every
// block-cache miss, and LoadDir pays it for every list.
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
			c, n := uvarint(buf, off)
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
	flat := cols[len(ids):]
	end := 0
	for i := range ids {
		start := end
		end++
		if marker == listCounted {
			c, n := uvarint(buf, freqOff) // validated by the sizing pass
			freqOff += n
			end += int(c)
		}
		if off, err = decodeRun(buf, off, flat, start, end, i); err != nil {
			return List{}, 0, err
		}
		ends[i] = uint32(end)
	}
	return List{ids: ids, vals: ends, pos: flat}, off, nil
}

// decodeRun decodes posting i's run of delta-coded positions (the first
// absolute) at off into pos[start:end], writing each by index into the
// list's position column, and returns the offset past them.
//
// It reads a little-endian word at a time. The word's lanes before its
// first continuation bit — all eight, in a dense file's run — are
// one-byte deltas, kept up to the run's end. All eight lanes' sums are
// written without a branch, past the kept ones too (the steps and runs
// decoded after them overwrite those slots), and a two-byte delta that
// follows the kept lanes within the word joins the step: in the largest
// blocks of the benchmark corpus three deltas in four take one byte and
// nearly all the rest two. A has-zero-byte test finds a zero delta (a
// duplicate) in a kept lane other than a run's first, whose delta is the
// absolute position, and no sum can leave the uint32 range while prev
// stays wordRoom below its top. What the word step does not take — a
// longer varint, a zero delta, the last words of buf or of the column, a
// run too near the top — is read by the scalar step, one varint through
// uvarint, so every fault is found and reported there, whatever the word
// held.
func decodeRun(buf []byte, off int, pos []uint32, start, end, i int) (int, error) {
	const (
		lanes, high = 0x0101_0101_0101_0101, 0x8080_8080_8080_8080
		wordRoom    = 7*0x7f + 0x3fff // the most one word step adds
	)
	var prev uint64
	for k := start; k < end; {
		if off+8 <= len(buf) && k+8 <= len(pos) && prev <= 0xFFFF_FFFF-wordRoom {
			x := binary.LittleEndian.Uint64(buf[off:])
			m := min(bits.TrailingZeros64(x&high)>>3, end-k) // kept one-byte lanes
			first := uint64(0)
			if k == start {
				first = 1 // a run's first delta may be 0
			}
			if ((x|first)-lanes)&high&(1<<(8*m)-1) == 0 {
				r, p := pos[k:k+8:k+8], prev
				p += x & 0xff
				r[0] = uint32(p)
				p += x >> 8 & 0xff
				r[1] = uint32(p)
				p += x >> 16 & 0xff
				r[2] = uint32(p)
				p += x >> 24 & 0xff
				r[3] = uint32(p)
				p += x >> 32 & 0xff
				r[4] = uint32(p)
				p += x >> 40 & 0xff
				r[5] = uint32(p)
				p += x >> 48 & 0xff
				r[6] = uint32(p)
				p += x >> 56
				r[7] = uint32(p)
				// prev plus the kept lanes, summed in 16-bit lanes.
				t := x & (1<<(8*m) - 1)
				t = t&0x00ff_00ff_00ff_00ff + t>>8&0x00ff_00ff_00ff_00ff
				p, n := prev+t*0x0001_0001_0001_0001>>48, m
				if j := k + m; m < 7 && j < end && x>>(8*m)&0x8080 == 0x80 {
					y := x >> (8 * m)
					if d := y&0x7f | y>>1&0x3f80; d != 0 || j == start {
						p += d
						pos[j] = uint32(p)
						m, n = m+1, n+2
					}
				}
				if m > 0 {
					prev, off, k = p, off+n, k+m
					continue
				}
			}
		}
		delta, n := uvarint(buf, off)
		if n <= 0 {
			return 0, fmt.Errorf("postings: corrupt position at posting %d", i)
		}
		off += n
		if k > start && delta == 0 {
			return 0, fmt.Errorf("postings: zero position delta at posting %d (duplicate position)", i)
		}
		v := prev + delta
		if delta > 0xFFFF_FFFF || v > 0xFFFF_FFFF {
			return 0, fmt.Errorf("postings: position %d overflows at posting %d", v, i)
		}
		pos[k] = uint32(v)
		prev = v
		k++
	}
	return off, nil
}

// uvarint decodes the uvarint at buf[off:], off <= len(buf), as
// binary.Uvarint does: its value and byte count, or a count <= 0 for a
// varint that runs off buf or overflows 64 bits. It is the one varint
// read of every posting decoder. A one-byte varint — most IDs,
// frequencies and position deltas — returns at once; any other takes the
// loop, whose second pass ends a two-byte one.
//
// It is written to fit the inliner's budget (cost 64 of 80), so every
// decoder's step compiles in place: a fallback that called binary.Uvarint
// would cost 57 of the 80 on its own, and no kernel making that call
// inlined.
func uvarint(buf []byte, off int) (v uint64, n int) {
	if off < len(buf) && buf[off] < 0x80 {
		return uint64(buf[off]), 1
	}
	for _, b := range buf[off:] {
		v |= uint64(b&0x7f) << (7 * n)
		if n++; b < 0x80 && (n < binary.MaxVarintLen64 || b < 2) {
			return v, n
		} else if n == binary.MaxVarintLen64 {
			return 0, -n
		}
	}
	return 0, 0
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
