package core

import (
	"fmt"
	"time"

	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/vfs"
	"desksearch/internal/walk"
)

// StageTimes holds the paper's Table 1 measurements: the isolated
// sequential cost of each pipeline component. Their sum is below a
// sequential Run: ReadExtract covers scanning only, so eliminating each
// file's duplicate terms and building its term block appear in no row.
type StageTimes struct {
	// FilenameGen is the directory traversal alone.
	FilenameGen time.Duration
	// ReadFiles is the "empty scanner": reading every file with no term
	// extraction — the paper's probe for whether the program is I/O bound.
	ReadFiles time.Duration
	// ReadExtract is reading plus term extraction, still without updating
	// any index. It times extract.Extractor.ScanOnly: every file read and
	// tokenized, the tokens only counted — no term table, no term block.
	ReadExtract time.Duration
	// IndexUpdate is inserting pre-extracted term blocks into a fresh
	// index, isolating Stage 3.
	IndexUpdate time.Duration
}

// MeasureStages reproduces the paper's Table 1 methodology on a live
// filesystem: each stage runs sequentially and in isolation.
func MeasureStages(fsys vfs.FS, root string, opts extract.Options) (StageTimes, error) {
	var st StageTimes

	start := time.Now()
	files, err := walk.List(fsys, root)
	if err != nil {
		return st, fmt.Errorf("core: stage 1: %w", err)
	}
	st.FilenameGen = time.Since(start)

	ex := extract.New(fsys, opts)

	start = time.Now()
	for _, f := range files {
		if _, err := ex.ReadOnly(f.Path); err != nil {
			return st, fmt.Errorf("core: read stage: %w", err)
		}
	}
	st.ReadFiles = time.Since(start)

	start = time.Now()
	for _, f := range files {
		if _, err := ex.ScanOnly(f.Path); err != nil {
			return st, fmt.Errorf("core: extract stage: %w", err)
		}
	}
	st.ReadExtract = time.Since(start)

	// Pre-extract all blocks, then time only the index insertion.
	blocks := make([]extract.TermBlock, 0, len(files))
	for i, f := range files {
		block, err := ex.File(f.Path, postings.FileID(i))
		if err != nil {
			return st, fmt.Errorf("core: block preparation: %w", err)
		}
		blocks = append(blocks, block)
	}
	ix := index.New(1 << 12)
	start = time.Now()
	for _, b := range blocks {
		if b.Positions != nil {
			ix.AddBlockPositional(b.File, b.Terms, b.Positions)
		} else {
			ix.AddBlock(b.File, b.Terms, b.Counts)
		}
	}
	st.IndexUpdate = time.Since(start)

	return st, nil
}
