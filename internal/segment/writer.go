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
		ents = index.AppendString(ents, term)
		ents = binary.AppendUvarint(ents, uint64(l.Len()))
		ents = binary.AppendUvarint(ents, uint64(len(blocks)-start))
		ents = binary.LittleEndian.AppendUint32(ents, index.Checksum(blocks[start:]))
		return true
	})

	// The header, then the dictionary region: the document set (an ID
	// section, postings.AppendIDs), the block region's length and the term
	// count ahead of the entries. The checksum after it covers everything
	// Open parses eagerly, so a reader verifies before trusting a single
	// dictionary byte — the frame's checksum-first rule scoped down to the
	// eagerly read region.
	docs := ix.Docs().IDs()
	size := headerLen + binary.MaxVarintLen32*len(docs) + 3*binary.MaxVarintLen64 + len(ents) + 4
	dict := index.AppendHeader(make([]byte, 0, size), index.KindSegment, flags)
	dict = binary.LittleEndian.AppendUint64(dict, 0) // dictLen, set below
	dict = postings.AppendIDs(dict, docs)
	dict = binary.AppendUvarint(dict, uint64(len(blocks)))
	dict = binary.AppendUvarint(dict, uint64(ix.NumTerms()))
	dict = append(dict, ents...)
	binary.LittleEndian.PutUint64(dict[index.HeaderLen:], uint64(len(dict)-headerLen))
	dict = binary.LittleEndian.AppendUint32(dict, index.Checksum(dict))

	if _, err := w.Write(dict); err != nil {
		return err
	}
	_, err := w.Write(blocks)
	return err
}
