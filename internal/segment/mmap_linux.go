//go:build linux

package segment

import (
	"os"
	"syscall"
)

// This file and its !linux counterpart are the one OS-dependent corner of
// the repository: read-only memory mapping of segment files.

// mapFile maps f read-only into memory and returns the mapping plus its
// unmap function. size must be f's current length and positive; a file
// that cannot be mapped (empty, or longer than the address space) is
// errNoMmap.
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, errNoMmap
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
