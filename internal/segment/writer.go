package segment

import (
	"encoding/binary"
	"io"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Write serializes ix as a DSIX v11 lazy segment (see the package comment
// and docs/FORMAT.md for the layout). The term dictionary is emitted in
// sorted order with one checksummed posting block per term, each encoded
// once by postings.AppendBlock straight into the block region; a reader
// can open the result in O(dictionary) and decode blocks on demand.
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
		blocks = postings.AppendBlock(blocks, l, ix.Positional())
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
