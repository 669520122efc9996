package postings

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// hotBlock returns the positional encoding of a synthetic hot term and
// its position count: 160 postings of 1 to 24 positions, about 2 000 in
// all. Like the largest blocks of a benchmark-corpus segment (about 3 in 4
// deltas of one byte, the rest of two), a posting's deltas are either
// mostly small (a file dense in the term) or mostly of two bytes.
func hotBlock() ([]byte, int) {
	rng := rand.New(rand.NewSource(60))
	ids := make([]FileID, 160)
	runs := make([][]uint32, len(ids))
	positions := 0
	for i := range ids {
		ids[i] = FileID(3*i + rng.Intn(3))
		wide := 1 + 8*rng.Intn(2) // in 20: 1 for a dense file, 9 for a sparse one
		run := make([]uint32, 1+rng.Intn(24))
		p := uint32(rng.Intn(64))
		for k := range run {
			run[k] = p
			if rng.Intn(20) < wide {
				p += 128 + uint32(rng.Intn(1500))
			} else {
				p += 1 + uint32(rng.Intn(127))
			}
		}
		runs[i] = run
		positions += len(run)
	}
	return FromSortedIDPositions(ids, runs).EncodePositional(nil), positions
}

// BenchmarkDecodePositional decodes a synthetic hot block (160 postings,
// about 2 000 positions) and a df-1 block of three positions, reporting
// the time per position decoded beside the allocations.
func BenchmarkDecodePositional(b *testing.B) {
	hot, hotPositions := hotBlock()
	one := FromSortedIDPositions([]FileID{7}, [][]uint32{{4, 90, 700}}).EncodePositional(nil)
	for _, bc := range []struct {
		name      string
		buf       []byte
		positions int
	}{
		{"hot", hot, hotPositions},
		{"df1", one, 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if sinkList, _, err = DecodePositional(bc.buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.positions), "ns/position")
		})
	}
}

// TestUvarintMatchesBinary holds the kernel to binary.Uvarint at every
// offset of every input: every one- and two-byte string, and the longer
// ones a uvarint's rule turns on — the tenth byte's limit, a varint that
// never ends, and each of those cut short. Both accept the same varints,
// with the same value and length, and reject the same ones.
func TestUvarintMatchesBinary(t *testing.T) {
	var inputs [][]byte
	for v := 0; v < 1<<16; v++ {
		inputs = append(inputs, []byte{byte(v)}, []byte{byte(v), byte(v >> 8)})
	}
	for _, last := range []byte{0, 1, 2, 0x7f, 0x80, 0xff} {
		for n := 3; n <= 11; n++ {
			b := bytes.Repeat([]byte{0xff}, n)
			b[n-1] = last
			inputs = append(inputs, b)
		}
	}
	for _, v := range []uint64{1 << 14, 1<<21 - 1, 1 << 32, math.MaxUint32, math.MaxUint64} {
		inputs = append(inputs, binary.AppendUvarint([]byte{0x85}, v))
	}
	for _, in := range inputs {
		for cut := 0; cut <= len(in); cut++ {
			buf := in[:cut]
			for off := 0; off <= len(buf); off++ {
				v, n := uvarint(buf, off)
				wv, wn := binary.Uvarint(buf[off:])
				if (n > 0) != (wn > 0) || n > 0 && (v != wv || n != wn) {
					t.Fatalf("uvarint(%x, %d) = (%d, %d), binary.Uvarint (%d, %d)", buf, off, v, n, wv, wn)
				}
			}
		}
	}
}

// refDecodePositional is DecodePositional as a plain loop over
// binary.Uvarint, appending every value to columns of the same shape: the
// reference the kernel and the word-at-a-time run decode are held to.
func refDecodePositional(buf []byte) (*List, int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("postings: corrupt count")
	}
	if count > uint64(len(buf)-n) {
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
		id := delta
		if i > 0 {
			id = prev + delta
			if delta == 0 {
				return nil, 0, fmt.Errorf("postings: zero delta at %d (duplicate id)", i)
			}
		}
		if delta > 0xFFFF_FFFF || id > 0xFFFF_FFFF {
			return nil, 0, fmt.Errorf("postings: id %d overflows FileID", id)
		}
		ids = append(ids, FileID(id))
		prev = id
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing frequency marker")
	}
	marker := buf[off]
	off++
	if marker != listBoolean && marker != listCounted {
		return nil, 0, fmt.Errorf("postings: unknown frequency marker %d", marker)
	}
	counts := make([]uint64, len(ids))
	total := uint64(0)
	for i := range ids {
		counts[i] = 1
		if marker == listCounted {
			c, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("postings: corrupt frequency at %d", i)
			}
			if c > 0xFFFF_FFFE {
				return nil, 0, fmt.Errorf("postings: frequency %d overflows at %d", c, i)
			}
			off += n
			counts[i] = c + 1
		}
		total += counts[i]
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("postings: missing positions marker")
	}
	posMarker := buf[off]
	off++
	switch posMarker {
	case posAbsent:
		l := &List{ids: ids}
		if marker == listCounted {
			l.vals = make([]uint32, len(ids))
			for i, c := range counts {
				l.vals[i] = uint32(c)
			}
			l.normalize()
		}
		return l, off, nil
	case posPresent:
	default:
		return nil, 0, fmt.Errorf("postings: unknown positions marker %d", posMarker)
	}
	if total > uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("postings: position count %d exceeds buffer", total)
	}
	ends, flat := make([]uint32, 0, len(ids)), make([]uint32, 0, total)
	for i, c := range counts {
		var prev uint64
		for k := uint64(0); k < c; k++ {
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
			if delta > 0xFFFF_FFFF || v > 0xFFFF_FFFF {
				return nil, 0, fmt.Errorf("postings: position %d overflows at posting %d", v, i)
			}
			flat = append(flat, uint32(v))
			prev = v
		}
		ends = append(ends, uint32(len(flat)))
	}
	return &List{ids: ids, vals: ends, pos: flat}, off, nil
}

// rawPositional writes a positional encoding from raw deltas, zeros and
// overflows included: ids are the ID section's deltas (the first
// absolute), and runs each posting's position deltas (the first
// absolute).
func rawPositional(ids []uint64, runs [][]uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, d := range ids {
		buf = binary.AppendUvarint(buf, d)
	}
	buf = append(buf, listCounted)
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, uint64(len(r)-1))
	}
	buf = append(buf, posPresent)
	for _, r := range runs {
		for _, d := range r {
			buf = binary.AppendUvarint(buf, d)
		}
	}
	return buf
}

// deltas returns n position deltas of d each, after first.
func deltas(first uint64, n int, d uint64) []uint64 {
	r := []uint64{first}
	for range n {
		r = append(r, d)
	}
	return r
}

// kernelCases are the encodings the word-at-a-time decode turns on.
func kernelCases() map[string][]byte {
	near := uint64(math.MaxUint32 - 8*0x7f)
	withZero := func(first uint64, n, lane int) []uint64 {
		r := deltas(first, n-1, 5)
		r[lane] = 0
		return r
	}
	cases := map[string][]byte{
		// Runs of 7, 8, 9 and 16 one-byte deltas, the last ending on the
		// block's last byte, so its final word does too.
		"run7":  rawPositional([]uint64{1, 2}, [][]uint64{deltas(3, 6, 1), {9}}),
		"run8":  rawPositional([]uint64{1, 2}, [][]uint64{deltas(3, 7, 2), {9}}),
		"run9":  rawPositional([]uint64{1, 2}, [][]uint64{{9}, deltas(3, 8, 3)}),
		"run16": rawPositional([]uint64{1}, [][]uint64{deltas(0, 15, 0x7f)}),
		// A two-byte delta inside and at the end of a run.
		"two-byte":      rawPositional([]uint64{4}, [][]uint64{{1, 2, 3, 300, 4, 5, 6, 7, 8, 9, 10, 200}}),
		"two-byte-last": rawPositional([]uint64{4}, [][]uint64{append(deltas(1, 8, 1), 0x3fff)}),
		// A zero delta in lanes 0 and 3 of a run's first word (lane 0 is
		// the absolute position 0, valid) and of a word inside a run.
		"zero-lane0-start":  rawPositional([]uint64{7}, [][]uint64{withZero(0, 12, 0)}),
		"zero-lane3-start":  rawPositional([]uint64{7}, [][]uint64{withZero(4, 12, 3)}),
		"zero-lane0-inside": rawPositional([]uint64{7}, [][]uint64{withZero(4, 20, 8)}),
		"zero-lane3-inside": rawPositional([]uint64{7}, [][]uint64{withZero(4, 20, 11)}),
		// Positions within 8·127 of 2^32: eight one-byte deltas that fit,
		// and ones that pass the top, from just under and over the guard.
		"near-top-fits":      rawPositional([]uint64{2}, [][]uint64{deltas(near, 8, 0x7f)}),
		"near-top-overflows": rawPositional([]uint64{2}, [][]uint64{deltas(near+1, 8, 0x7f)}),
		"far-top-overflows":  rawPositional([]uint64{2}, [][]uint64{deltas(math.MaxUint32-300, 8, 100)}),
		"low-overflows":      rawPositional([]uint64{2}, [][]uint64{deltas(near-8*0x7f, 16, 0x7f)}),
		// IDs near 0xFFFF_FFFF: the last one, and one past it.
		"id-top":      rawPositional([]uint64{math.MaxUint32 - 1, 1}, [][]uint64{deltas(0, 8, 1), {1}}),
		"id-overflow": rawPositional([]uint64{math.MaxUint32 - 1, 2}, [][]uint64{{1}, {1}}),
		"id-zero":     rawPositional([]uint64{math.MaxUint32 - 1, 0}, [][]uint64{{1}, {1}}),
	}
	return cases
}

// TestDecodeMatchesReference holds DecodePositional to refDecodePositional
// on every kernel case, every cut of each and each with any one byte set
// to a value a varint's rule turns on, then on the benchmark's hot block
// and random encodings of small deltas, zeros among them: both accept the same encodings
// and decode them to lists equal column for column (nil and empty
// apart), reading the same bytes, or reject them with the same error.
func TestDecodeMatchesReference(t *testing.T) {
	check := func(name string, buf []byte) {
		t.Helper()
		got, n, err := DecodePositional(buf)
		want, wn, werr := refDecodePositional(buf)
		if err != nil || werr != nil {
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s %x: error %v, reference %v", name, buf, err, werr)
			}
			return
		}
		if n != wn || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %x: decoded %d bytes to %v, reference %d bytes to %v", name, buf, n, got.IDs(), wn, want.IDs())
		}
	}
	for name, buf := range kernelCases() {
		check(name, buf)
		for cut := range buf {
			check(name+" cut", buf[:cut])
		}
		for i := range buf {
			for _, b := range []byte{0, 1, 2, 0x7e, 0x7f, 0x80, 0x81, 0xff, buf[i] ^ 0x80} {
				mut := bytes.Clone(buf)
				mut[i] = b
				check(name+" mutated", mut)
			}
		}
	}
	hot, _ := hotBlock()
	check("hot", hot)
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		ids, runs := []uint64{}, [][]uint64{}
		for range 1 + rng.Intn(8) {
			ids = append(ids, uint64(rng.Intn(3)))
			r := make([]uint64, 1+rng.Intn(20))
			for k := range r {
				r[k] = uint64(rng.Intn(3))
				if rng.Intn(6) == 0 {
					r[k] = uint64(rng.Intn(1 << 15))
				}
			}
			runs = append(runs, r)
		}
		check("random", rawPositional(ids, runs))
	}
}
