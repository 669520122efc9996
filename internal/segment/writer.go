package segment

import (
	"encoding/binary"
	"io"

	"desksearch/internal/index"
	"desksearch/internal/postings"
)

// Write serializes ix as a DSIX v11 lazy segment (see the package comment
// and docs/FORMAT.md for the layout). It walks the index's own dictionary
// order (index.Index.Range) once, encoding each term's checksummed posting
// block straight into the block region (postings.AppendBlock) and its
// dictionary entry beside it, and writes the document set the index
// keeps; a reader can open the result in O(dictionary) and decode blocks
// on demand.
func Write(w io.Writer, ix *index.Index) error {
	flags := byte(0)
	if ix.Positional() {
		flags |= flagPositional
	}

	// Posting blocks and their dictionary entries, buffered in term order.
	// Segments are per-shard, so the buffers are bounded by shard size.
	var blocks, ents []byte
	ix.Range(func(term string, l *postings.List) bool {
		start := len(blocks)
		blocks = postings.AppendBlock(blocks, l, ix.Positional())
		ents = binary.AppendUvarint(ents, uint64(len(term)))
		ents = append(ents, term...)
		ents = binary.AppendUvarint(ents, uint64(l.Len()))
		ents = binary.AppendUvarint(ents, uint64(len(blocks)-start))
		ents = binary.LittleEndian.AppendUint32(ents, index.Checksum(blocks[start:]))
		return true
	})

	// Dictionary region: the document set, the block region's length and
	// the term count ahead of the entries.
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
	buf = binary.AppendUvarint(buf, uint64(ix.NumTerms()))

	// Header + dictionary + their checksum, then the blocks. The checksum
	// covers everything Open parses eagerly, so a reader verifies before
	// trusting a single dictionary byte — the frame codec's checksum-first
	// rule scoped down to the eagerly read region.
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, index.Version)
	hdr = append(hdr, index.KindSegment, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(buf)+len(ents)))

	h := index.NewChecksum()
	h.Write(hdr)
	h.Write(buf)
	h.Write(ents)
	sum := binary.LittleEndian.AppendUint32(nil, h.Sum32())

	for _, part := range [][]byte{hdr, buf, ents, sum, blocks} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}
