package segment

import (
	"encoding/binary"
	"fmt"
	"io"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Write serializes ix as a DSIX v11 lazy segment (see the package comment
// and docs/FORMAT.md for the layout). The term dictionary is emitted in
// sorted order with one checksummed posting block per term, each block
// prefixed by a skip table; a reader can open the result in O(dictionary)
// and decode blocks on demand.
func Write(w io.Writer, ix *index.Index) error {
	flags := byte(0)
	if ix.Positional() {
		flags |= flagPositional
	}

	// Posting blocks, buffered in term order. Segments are per-shard, so
	// the buffer is bounded by shard size — same budget the eager writer
	// already spends on its frame payload.
	terms := ix.Terms(nil)
	type dictEnt struct {
		term string
		df   int
		blen int
		sum  uint32
	}
	dict := make([]dictEnt, 0, len(terms))
	var blocks []byte
	for _, term := range terms {
		l := ix.Lookup(term)
		if l == nil || l.Len() == 0 {
			continue // defensive: the index never stores empty lists
		}
		start := len(blocks)
		var err error
		blocks, err = appendBlock(blocks, l, ix.Positional())
		if err != nil {
			return fmt.Errorf("segment: term %q: %w", term, err)
		}
		dict = append(dict, dictEnt{
			term: term,
			df:   l.Len(),
			blen: len(blocks) - start,
			sum:  index.Checksum(blocks[start:]),
		})
	}

	// Dictionary region.
	var buf []byte
	docs := ix.Docs().IDs()
	buf = binary.AppendUvarint(buf, uint64(len(docs)))
	prev := postings.FileID(0)
	for i, id := range docs {
		delta := uint64(id - prev)
		if i == 0 {
			delta = uint64(id)
		}
		buf = binary.AppendUvarint(buf, delta)
		prev = id
	}
	buf = binary.AppendUvarint(buf, uint64(len(blocks)))
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, e := range dict {
		buf = binary.AppendUvarint(buf, uint64(len(e.term)))
		buf = append(buf, e.term...)
		buf = binary.AppendUvarint(buf, uint64(e.df))
		buf = binary.AppendUvarint(buf, uint64(e.blen))
		buf = binary.LittleEndian.AppendUint32(buf, e.sum)
	}

	// Header + dictionary + their checksum, then the blocks. The checksum
	// covers everything Open parses eagerly, so a reader verifies before
	// trusting a single dictionary byte — the frame codec's checksum-first
	// rule scoped down to the eagerly read region.
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, index.Version)
	hdr = append(hdr, index.KindSegment, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)))

	h := index.NewChecksum()
	h.Write(hdr)
	h.Write(buf)
	sum := binary.LittleEndian.AppendUint32(nil, h.Sum32())

	for _, part := range [][]byte{hdr, buf, sum, blocks} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// appendBlock appends one term's posting block to dst: the skip table,
// then the standard posting-list encoding. Skip entries are recovered by
// re-scanning the encoding's ID section — entry k records ids[k*skipInterval]
// and the offset just past its varint, both delta-coded, so a seek resumes
// decoding at posting k*skipInterval+1.
func appendBlock(dst []byte, l *postings.List, positional bool) ([]byte, error) {
	var enc []byte
	if positional {
		enc = l.EncodePositional(nil)
	} else {
		enc = l.Encode(nil)
	}

	count, n := binary.Uvarint(enc)
	if n <= 0 || count != uint64(l.Len()) {
		return nil, fmt.Errorf("re-scan of fresh encoding failed") // unreachable
	}
	type skip struct {
		id  uint64
		off int
	}
	skips := make([]skip, 0, maxSkips(l.Len()))
	off := n
	var prev uint64
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(enc[off:])
		if n <= 0 {
			return nil, fmt.Errorf("re-scan of fresh encoding failed") // unreachable
		}
		off += n
		if i == 0 {
			prev = delta
		} else {
			prev += delta
		}
		if i > 0 && i%skipInterval == 0 {
			skips = append(skips, skip{id: prev, off: off})
		}
	}

	dst = binary.AppendUvarint(dst, uint64(len(skips)))
	var prevID uint64
	var prevOff int
	for _, s := range skips {
		dst = binary.AppendUvarint(dst, s.id-prevID)
		dst = binary.AppendUvarint(dst, uint64(s.off-prevOff))
		prevID, prevOff = s.id, s.off
	}
	return append(dst, enc...), nil
}
