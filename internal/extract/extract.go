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

	"desksearch/internal/docfmt"
	"desksearch/internal/postings"
	"desksearch/internal/tokenize"
	"desksearch/internal/vfs"
)

// TermBlock is the unit of work passed from term extractors to index
// updaters: one file's distinct terms and, parallel to them, how many
// times each occurred in the file (the term frequency TF ranking scores
// with).
//
// Ownership: a block's slices are allocated for it and pass to whoever
// receives the block — the extractor keeps no reference and never writes
// to them again; the term strings are immutable and shared between the
// blocks of one extractor. The Positions lists are exact-capacity windows
// of a single buffer. The index stores them as given, so that buffer
// lives as long as any of the file's postings does; holders may sort a
// window in place but must never append to one.
type TermBlock struct {
	File postings.FileID
	// Terms are the file's distinct terms in order of first occurrence.
	Terms []string
	// Counts[i] is the number of occurrences of Terms[i]; nil means every
	// term occurred exactly once. Counts is nil whenever Positions is set —
	// the occurrence count is then len(Positions[i]).
	Counts []uint32
	// Positions[i] lists the ascending token positions (emission ordinals
	// of the tokenizer, counting only emitted terms) at which Terms[i]
	// occurs in the file. nil unless the extractor runs with
	// Options.Positions — the payload phrase search needs.
	Positions [][]uint32
	// Tokens is the file's token length: the total number of emitted term
	// occurrences, duplicates included (the sum of Counts, or of the
	// Positions list lengths). BM25 normalizes scores by it; the file table
	// persists it as the DSIX v9 doc-length section.
	Tokens uint32
}

// Options configure an Extractor.
type Options struct {
	// Tokenize controls term recognition.
	Tokenize tokenize.Options
	// Formats enables document-format extraction (HTML/WP stripping) before
	// tokenization. The paper's corpus was pre-extracted plain text, so the
	// pipeline default is off; cmd/indexgen enables it for real desktops.
	Formats bool
	// Positions records each term occurrence's token position (the ordinal
	// among the file's emitted terms) in TermBlock.Positions, growing the
	// per-block payload so the index can answer quoted phrase queries.
	// Positions are ordinals among *emitted* terms: terms dropped by
	// stopword or length filters do not advance the counter, so a phrase
	// matches across a dropped word — the usual contract of
	// stopword-stripped positional indexes.
	Positions bool
}

// Extractor turns files into TermBlocks. Each extractor goroutine owns one
// Extractor; the term table is reused across files — its buckets, and the
// key string of every term an earlier file already contained — so an
// Extractor must not be shared.
type Extractor struct {
	fs   vfs.FS
	opts Options
	seen *counter
}

// New returns an Extractor reading from fs.
func New(fs vfs.FS, opts Options) *Extractor {
	return &Extractor{fs: fs, opts: opts, seen: newCounter(1024, opts.Positions)}
}

// text reads the named file and, with Options.Formats, strips its markup.
func (e *Extractor) text(path string) ([]byte, error) {
	data, err := e.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("extract: %s: %w", path, err)
	}
	if e.opts.Formats {
		data = docfmt.Extract(path, data)
	}
	return data, nil
}

// File extracts the duplicate-free term block of the named file, counting
// each term's occurrences as the duplicates collapse. It allocates the
// block's slices and nothing per token.
func (e *Extractor) File(path string, id postings.FileID) (TermBlock, error) {
	data, err := e.text(path)
	if err != nil {
		return TermBlock{}, err
	}
	e.seen.Reset()
	tokenize.ScanBytes(data, e.opts.Tokenize, e.seen.Add)
	block := TermBlock{File: id, Tokens: e.seen.Total()}
	if e.opts.Positions {
		block.Terms, block.Positions = e.seen.Positions()
	} else {
		block.Terms, block.Counts = e.seen.Counts()
	}
	return block, nil
}

// ScanOnly reads and tokenizes the file without collecting terms — the
// paper's "empty scanner plus extraction" measurement (Table 1, "read files
// and extract terms"). It returns the number of term occurrences seen.
func (e *Extractor) ScanOnly(path string) (int, error) {
	data, err := e.text(path)
	if err != nil {
		return 0, err
	}
	n := 0
	tokenize.ScanBytes(data, e.opts.Tokenize, func([]byte) { n++ })
	return n, nil
}

// ReadOnly reads the file byte by byte without extracting anything — the
// paper's "empty scanner" used to decide whether the program is I/O bound
// (Table 1, "read files"). It returns a checksum-free byte count; the body
// is touched so the read cannot be optimized away.
func (e *Extractor) ReadOnly(path string) (int64, error) {
	data, err := e.fs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("extract: %s: %w", path, err)
	}
	var sink byte
	for _, b := range data {
		sink ^= b
	}
	_ = sink
	return int64(len(data)), nil
}

// Occurrences extracts every term occurrence (duplicates included) and
// calls emit for each — the paper's rejected immediate-insertion
// alternative, used by the en-bloc ablation benchmark.
func (e *Extractor) Occurrences(path string, id postings.FileID, emit func(term string, id postings.FileID)) error {
	data, err := e.text(path)
	if err != nil {
		return err
	}
	tokenize.ScanBytes(data, e.opts.Tokenize, func(term []byte) { emit(string(term), id) })
	return nil
}
