// Package extract implements Stage 2 of the index generator: term
// extraction. An extractor reads a file, converts it to plain text,
// tokenizes it, and eliminates duplicate terms with a private term table,
// producing one en-bloc TermBlock per file.
//
// Per-file duplicate elimination is the design the paper settles by
// analysis: because each file is scanned exactly once, inserting the
// duplicate-free block into the index needs no (term, filename) duplicate
// check, and passing large blocks slashes buffering and locking operations.
package extract

import (
	"fmt"
	"io/fs"

	"desksearch/internal/postings"
	"desksearch/internal/tokenize"
)

// TermBlock is the unit of work passed from term extractors to index
// updaters: one file's distinct terms and, parallel to them, how many
// times each occurred in the file (the term frequency TF ranking scores
// with) or, for a positional block, where.
//
// Ownership: a block's slices are allocated for it and pass to whoever
// receives the block — the extractor keeps no reference and never writes
// to them again; the term strings are immutable and shared between the
// blocks of one extractor. Stage 3 (index.Builder.AddBlockPositional)
// adopts Pos as its own log of the block's positions rather than copying
// it, so a holder that hands the block on must not write to Pos again.
type TermBlock struct {
	File postings.FileID
	// Terms are the file's distinct terms in order of first occurrence.
	Terms []string
	// Counts[i] is the number of occurrences of Terms[i]; nil means every
	// term occurred exactly once. Counts is nil whenever Ends is set — the
	// occurrence count is then the length of the term's run.
	Counts []uint32
	// Ends and Pos are a positional block's token positions (emission
	// ordinals of the tokenizer, counting only emitted terms) in two flat
	// columns, the shape of a positional posting list's: Pos holds every
	// position, term by term in the order of Terms, each term's run
	// ascending, and Ends[i] is where the run of Terms[i] ends in Pos (it
	// starts at Ends[i-1], or 0). Both are nil unless the extractor runs
	// with Options.Positions — the payload phrase search needs.
	Ends, Pos []uint32
	// Tokens is the file's token length: the total number of emitted term
	// occurrences, duplicates included (the sum of Counts, or len(Pos)).
	// BM25 normalizes scores by it; the file table persists it as the
	// DSIX manifest's doc-length section.
	Tokens uint32
}

// Options configure an Extractor.
type Options struct {
	// Positions records each term occurrence's token position (the ordinal
	// among the file's emitted terms) in TermBlock.Ends and TermBlock.Pos,
	// growing the per-block payload so the index can answer quoted phrase
	// queries.
	// Positions are ordinals among *emitted* terms: a run the scanner
	// drops (longer than tokenize.MaxTermLen) does not advance the
	// counter, so a phrase matches across it.
	Positions bool
}

// Extractor turns files into TermBlocks. Each extractor goroutine owns one
// Extractor; the term table is reused across files — its buckets, and the
// key string of every term an earlier file already contained — so an
// Extractor must not be shared.
type Extractor struct {
	fsys fs.FS
	opts Options
	seen *counter
}

// New returns an Extractor reading from fsys.
func New(fsys fs.FS, opts Options) *Extractor {
	return &Extractor{fsys: fsys, opts: opts, seen: newCounter(1024, opts.Positions)}
}

// read returns the named file's bytes.
func (e *Extractor) read(path string) ([]byte, error) {
	data, err := fs.ReadFile(e.fsys, path)
	if err != nil {
		return nil, fmt.Errorf("extract: %s: %w", path, err)
	}
	return data, nil
}

// File extracts the duplicate-free term block of the named file, counting
// each term's occurrences as the duplicates collapse. It allocates the
// block's slices and nothing per token.
func (e *Extractor) File(path string, id postings.FileID) (TermBlock, error) {
	data, err := e.read(path)
	if err != nil {
		return TermBlock{}, err
	}
	e.seen.Reset()
	tokenize.ScanBytes(data, e.seen.Add)
	block := TermBlock{File: id, Tokens: e.seen.Total()}
	if e.opts.Positions {
		block.Terms, block.Ends, block.Pos = e.seen.Positions()
	} else {
		block.Terms, block.Counts = e.seen.Counts()
	}
	return block, nil
}

// ScanOnly reads and tokenizes the file without collecting terms — the
// paper's "empty scanner plus extraction" measurement (Table 1, "read files
// and extract terms"). It returns the number of term occurrences seen.
func (e *Extractor) ScanOnly(path string) (int, error) {
	data, err := e.read(path)
	if err != nil {
		return 0, err
	}
	n := 0
	tokenize.ScanBytes(data, func([]byte, uint32) { n++ })
	return n, nil
}

// ReadOnly reads the file byte by byte without extracting anything — the
// paper's "empty scanner" used to decide whether the program is I/O bound
// (Table 1, "read files"). It returns a checksum-free byte count; the body
// is touched so the read cannot be optimized away.
func (e *Extractor) ReadOnly(path string) (int64, error) {
	data, err := e.read(path)
	if err != nil {
		return 0, err
	}
	var sink byte
	for _, b := range data {
		sink ^= b
	}
	_ = sink
	return int64(len(data)), nil
}
