// Package walk implements Stage 1 of the index generator: filename
// generation. It traverses the directory hierarchy from a root and produces
// the complete list of files to index.
//
// The paper measured this stage at 2–5 % of total runtime and concluded
// that parallelizing it was unnecessary; the sequential List is therefore
// the pipeline's only walker.
package walk

import (
	"path"

	"desksearch/internal/vfs"
)

// FileRef names one file to be indexed, with the size and modification
// stamp recorded in the file table and compared by incremental change
// detection (internal/delta).
type FileRef struct {
	Path    string
	Size    int64
	ModTime int64
}

// List traverses fsys from root ("." for the whole filesystem) and returns
// every file beneath it, depth-first in sorted directory order. The
// deterministic order makes FileIDs stable across runs, which the paper's
// round-robin distribution (and our tests) relies on.
func List(fsys vfs.FS, root string) ([]FileRef, error) {
	var out []FileRef
	err := walkDir(fsys, root, &out)
	return out, err
}

func walkDir(fsys vfs.FS, dir string, out *[]FileRef) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		child := path.Join(dir, e.Name)
		if e.IsDir {
			if err := walkDir(fsys, child, out); err != nil {
				return err
			}
			continue
		}
		*out = append(*out, FileRef{Path: child, Size: e.Size, ModTime: e.ModTime})
	}
	return nil
}
