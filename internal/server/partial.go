package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"desksearch"
	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Partial is a worker's answer to POST /internal/search: its local top-k
// page in the form the broker's merge takes, plus what the broker needs to
// check the statistics the page was scored under. It travels in the binary
// layout AppendPartial writes (tabulated in docs/ARCHITECTURE.md, "The
// partial"), never as JSON: scores are raw Float64bits, and nothing on the
// broker's per-query path goes through reflection.
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
	dst = appendDF(dst, &p.DF)
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
		dst = index.AppendString(dst, h.Path)
		dst = binary.AppendUvarint(dst, uint64(len(h.Terms)))
		for _, t := range h.Terms {
			dst = index.AppendString(dst, t)
		}
		if h.Snippet == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = index.AppendString(dst, h.Snippet.Text)
		dst = binary.AppendUvarint(dst, uint64(len(h.Snippet.Highlights)))
		for _, sp := range h.Snippet.Highlights {
			dst = binary.AppendUvarint(dst, uint64(sp.Start))
			dst = binary.AppendUvarint(dst, uint64(sp.End))
		}
	}
	return dst
}

// appendDF appends a df block: docs, tokens, then the term and the prefix
// counts. A partial carries one, and so does a POST /internal/search body
// (AppendSearchBody); readDF reads both.
func appendDF(dst []byte, df *desksearch.DocFreqs) []byte {
	dst = binary.AppendUvarint(dst, uint64(df.Docs))
	dst = binary.AppendUvarint(dst, df.Tokens)
	dst = appendCounts(dst, df.Terms)
	return appendCounts(dst, df.Prefixes)
}

func appendCounts(dst []byte, v []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, n := range v {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// DecodePartial parses one partial, which must fill data exactly. data
// comes from another process, so it is read through index.Cursor, the
// reader of every DSIX region: every count is checked against the bytes
// left before anything is allocated for it, a string is capped at 1 MiB,
// and a truncated, overlong or wrong-version input is an error, never a
// panic. The result does not alias data: every string in it is a slice of
// one copy made up front, and every hit's Terms a window of one slab, so a
// page without snippets decodes in the same number of allocations
// whatever its hit count; each snippet costs its own two.
func DecodePartial(data []byte) (*Partial, error) {
	s := string(data)
	c := index.NewCursor(data)
	// str reads a string from c, a cursor over a suffix of data, as the
	// slice of s that holds its bytes.
	str := func(c *index.Cursor) string {
		b := c.StrBytes()
		end := len(data) - c.Left()
		return s[end-len(b) : end]
	}
	if v := c.Byte(); v != partialVersion {
		return nil, malformedPartial{fmt.Errorf("version %d, want %d", v, partialVersion)}
	}
	p := &Partial{}
	p.Total = c.Int()
	p.Generation = c.Uvarint()
	p.DF = readDF(c)
	if n := c.Count("partition", 10); n > 0 {
		p.Partitions = make([]PartitionStat, n)
		for i := range p.Partitions {
			p.Partitions[i] = PartitionStat{Partition: c.Int(), Matched: c.Int(), DurationUS: math.Float64frombits(c.U64())}
		}
	}
	p.Hits = make([]desksearch.Hit, c.Count("hit", 12))
	// Every hit's terms are cut from one slab, filled once their total is
	// known: termsAt[i] is where hit i's term count starts, 0 for a hit
	// without terms (offset 0 holds the version byte).
	var termsAt []int
	nTerms := 0
	for i := range p.Hits {
		h := &p.Hits[i]
		file := c.Uvarint()
		if file > math.MaxUint32 {
			return nil, malformedPartial{fmt.Errorf("hit %d: file ID %d overflows 32 bits", i, file)}
		}
		h.File = postings.FileID(file)
		h.Score = math.Float64frombits(c.U64())
		h.Path = str(c)
		at := len(data) - c.Left()
		if n := c.Count("hit term", 1); n > 0 {
			if termsAt == nil {
				termsAt = make([]int, len(p.Hits))
			}
			termsAt[i], nTerms = at, nTerms+n
			for range n {
				c.StrBytes()
			}
		}
		switch flag := c.Byte(); flag {
		case 0:
		case 1:
			sn := &desksearch.Snippet{Text: str(c)}
			if n := c.Count("highlight", 2); n > 0 {
				sn.Highlights = make([]desksearch.Span, n)
				for j := range sn.Highlights {
					sn.Highlights[j] = desksearch.Span{Start: c.Int(), End: c.Int()}
				}
			}
			h.Snippet = sn
		default:
			return nil, malformedPartial{fmt.Errorf("hit %d: snippet flag %d", i, flag)}
		}
	}
	if err := c.Err(); err != nil {
		return nil, malformedPartial{err}
	}
	if n := c.Left(); n != 0 {
		return nil, malformedPartial{fmt.Errorf("%d trailing bytes", n)}
	}
	slab := make([]string, nTerms)
	for i, at := range termsAt {
		if at == 0 {
			continue
		}
		// Read the hit's terms again, where the first pass checked them.
		tc := index.NewCursor(data[at:])
		n := tc.Count("hit term", 1)
		h := &p.Hits[i]
		h.Terms, slab = slab[:n:n], slab[n:]
		for j := range h.Terms {
			h.Terms[j] = str(tc)
		}
	}
	return p, nil
}

// malformedPartial is DecodePartial's one error: what was wrong, under one
// prefix. The prefix is added only when the message is read, so rejecting
// a forged partial costs one allocation beyond the Cursor's own failure
// (TestPartialCountsBoundedByInput).
type malformedPartial struct{ err error }

func (e malformedPartial) Error() string { return "malformed partial: " + e.err.Error() }
func (e malformedPartial) Unwrap() error { return e.err }

// readDF reads the df block appendDF writes.
func readDF(c *index.Cursor) desksearch.DocFreqs {
	return desksearch.DocFreqs{Docs: c.Int(), Tokens: c.Uvarint(), Terms: readCounts(c, "df term"), Prefixes: readCounts(c, "df prefix")}
}

// readCounts reads a df vector: a count, then that many ints.
func readCounts(c *index.Cursor, what string) []int {
	n := c.Count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = c.Int()
	}
	return out
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
