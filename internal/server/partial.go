package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"desksearch"
	"desksearch/internal/postings"
)

// Partial is a worker's answer to POST /internal/search: its local top-k
// page in the form the broker's merge takes, plus what the broker needs to
// check the statistics the page was scored under. It travels in the binary
// layout AppendPartial writes (tabulated in worker.go's header), never as
// JSON: scores are raw Float64bits, and nothing on the broker's per-query
// path goes through reflection.
type Partial struct {
	// Total counts this worker's matches (its partitions' share of the
	// corpus-wide total; workers are document-disjoint, so totals add).
	Total int
	// Generation is the worker's catalog generation for this evaluation.
	Generation uint64
	// DF is the worker's own document-frequency vector for the query, read
	// under the same view of the index as the evaluation (Response.DF),
	// whatever the ranking. The broker sums these across groups, returns a
	// BM25 page only when the sum equals the vector the page was scored
	// with, and stores the sum in its df table.
	DF desksearch.DocFreqs
	// Partitions reports per-partition match counts and evaluation times,
	// keyed by global shard number.
	Partitions []PartitionStat
	// Hits is the worker-local top-k page, in merged rank order. Hit.File
	// is the directory-wide document ID — the merge tie-break key,
	// comparable across workers because the file table is shared.
	Hits []desksearch.Hit
}

// partialVersion is the layout's first byte. A broker and a worker built
// from commits that disagree on the layout fail on it ("malformed
// response") instead of misreading each other.
const partialVersion = 1

// AppendPartial appends p's wire form to dst and returns the extended
// slice.
func AppendPartial(dst []byte, p *Partial) []byte {
	dst = append(dst, partialVersion)
	dst = binary.AppendUvarint(dst, uint64(p.Total))
	dst = binary.AppendUvarint(dst, p.Generation)
	dst = binary.AppendUvarint(dst, uint64(p.DF.Docs))
	dst = binary.AppendUvarint(dst, p.DF.Tokens)
	dst = appendCounts(dst, p.DF.Terms)
	dst = appendCounts(dst, p.DF.Prefixes)
	dst = binary.AppendUvarint(dst, uint64(len(p.Partitions)))
	for _, ps := range p.Partitions {
		dst = binary.AppendUvarint(dst, uint64(ps.Partition))
		dst = binary.AppendUvarint(dst, uint64(ps.Matched))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ps.DurationUS))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Hits)))
	for i := range p.Hits {
		h := &p.Hits[i]
		dst = binary.AppendUvarint(dst, uint64(h.File))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Score))
		dst = appendString(dst, h.Path)
		dst = binary.AppendUvarint(dst, uint64(len(h.Terms)))
		for _, t := range h.Terms {
			dst = appendString(dst, t)
		}
		if h.Snippet == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = appendString(dst, h.Snippet.Text)
		dst = binary.AppendUvarint(dst, uint64(len(h.Snippet.Highlights)))
		for _, sp := range h.Snippet.Highlights {
			dst = binary.AppendUvarint(dst, uint64(sp.Start))
			dst = binary.AppendUvarint(dst, uint64(sp.End))
		}
	}
	return dst
}

func appendCounts(dst []byte, v []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, n := range v {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

var errMalformedPartial = errors.New("malformed partial")

// DecodePartial parses one partial, which must fill data exactly. data
// comes from another process, so every count is checked against the bytes
// left before anything is allocated for it, and a truncated, overlong or
// wrong-version input is an error, never a panic. The result does not
// alias data: every string in it is a slice of one copy made up front,
// which keeps the allocations proportional to the hits, not to their
// fields.
func DecodePartial(data []byte) (*Partial, error) {
	r := partialReader{s: string(data)}
	if r.byte() != partialVersion {
		return nil, errMalformedPartial
	}
	p := &Partial{}
	p.Total = r.int()
	p.Generation = r.uvarint()
	p.DF.Docs = r.int()
	p.DF.Tokens = r.uvarint()
	p.DF.Terms = r.counts()
	p.DF.Prefixes = r.counts()
	if n := r.count(10); n > 0 {
		p.Partitions = make([]PartitionStat, n)
		for i := range p.Partitions {
			p.Partitions[i] = PartitionStat{Partition: r.int(), Matched: r.int(), DurationUS: math.Float64frombits(r.fixed64())}
		}
	}
	p.Hits = make([]desksearch.Hit, r.count(12))
	for i := range p.Hits {
		h := &p.Hits[i]
		file := r.uvarint()
		if file > math.MaxUint32 {
			r.fail()
		}
		h.File = postings.FileID(file)
		h.Score = math.Float64frombits(r.fixed64())
		h.Path = r.str()
		if n := r.count(1); n > 0 {
			h.Terms = make([]string, n)
			for j := range h.Terms {
				h.Terms[j] = r.str()
			}
		}
		switch r.byte() {
		case 0:
		case 1:
			sn := &desksearch.Snippet{Text: r.str()}
			if n := r.count(2); n > 0 {
				sn.Highlights = make([]desksearch.Span, n)
				for j := range sn.Highlights {
					sn.Highlights[j] = desksearch.Span{Start: r.int(), End: r.int()}
				}
			}
			h.Snippet = sn
		default:
			r.fail()
		}
		if r.failed {
			return nil, errMalformedPartial
		}
	}
	if r.failed || r.off != len(r.s) {
		return nil, errMalformedPartial
	}
	return p, nil
}

// partialReader walks a partial's bytes. The first read past the end or
// out of range sets failed and moves off to the end, so every later read
// fails too and returns zero — a zero count, so no loop runs on — and the
// caller reports one error at the end.
type partialReader struct {
	s      string
	off    int
	failed bool
}

func (r *partialReader) fail() {
	r.failed = true
	r.off = len(r.s)
}

func (r *partialReader) byte() byte {
	if r.off >= len(r.s) {
		r.fail()
		return 0xff
	}
	b := r.s[r.off]
	r.off++
	return b
}

func (r *partialReader) uvarint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64 && r.off < len(r.s); shift += 7 {
		b := r.s[r.off]
		r.off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break // overflows 64 bits
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	r.fail()
	return 0
}

// int reads a uvarint that must fit a non-negative int.
func (r *partialReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail()
		return 0
	}
	return int(v)
}

// count reads an element count whose elements take at least minBytes
// each, and fails when that many cannot fit in what is left — so a forged
// count cannot make the decoder allocate more than the input's own size.
func (r *partialReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.s)-r.off)/uint64(minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *partialReader) counts() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.int()
	}
	return out
}

func (r *partialReader) fixed64() uint64 {
	if len(r.s)-r.off < 8 {
		r.fail()
		return 0
	}
	s := r.s[r.off : r.off+8]
	r.off += 8
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func (r *partialReader) str() string {
	n := r.count(1)
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

// maxPooledBuffer is the largest buffer PutBuffer keeps. Partials and
// request bodies are a few KiB; a deep page with snippets can run to
// megabytes, and keeping that buffer would pin its size in the pool for
// good.
const maxPooledBuffer = 64 << 10

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer from the pool the worker's request
// and partial buffers and the broker's response buffers share.
func GetBuffer() *bytes.Buffer { return bufferPool.Get().(*bytes.Buffer) }

// PutBuffer returns b to the pool, unless it has grown past
// maxPooledBuffer. The caller must hold no slice of its bytes.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}
