//go:build !linux

package segment

import "os"

// mapFile is unsupported here; see mmap_linux.go.
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	return nil, nil, errNoMmap
}
