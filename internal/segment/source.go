package segment

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// errNoMmap reports that memory mapping is unavailable — the platform has
// no support or the file cannot be mapped. openSource treats it, like any
// other mapping failure, as "use positioned reads", never as a failure.
var errNoMmap = errors.New("segment: memory mapping unavailable")

// source abstracts how a Reader gets at segment bytes: a read-only memory
// mapping where the platform supports one (linux — mmap_linux.go), a
// pread-per-request file handle elsewhere. Decoders never retain returned
// slices (postings.Decode copies), so mapped reads are zero-copy and the
// fallback's allocations are short-lived.
type source struct {
	size int64

	data  []byte       // the mapping; nil in fallback mode
	unmap func() error // releases data; nil in fallback mode

	mu     sync.Mutex // guards f and closed in fallback mode
	f      *os.File   // open handle in fallback mode; nil when mapped
	closed bool
}

// newByteSource wraps an in-memory file image — the eager loading path,
// which has already read (and whole-file-verified) the segment bytes.
func newByteSource(data []byte) *source {
	return &source{size: int64(len(data)), data: data}
}

// openSource opens path for random access, preferring a memory mapping.
func openSource(path string) (*source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if data, unmap, err := mapFile(f, size); err == nil {
		// The mapping outlives the descriptor; no reason to hold the fd.
		f.Close()
		return &source{size: size, data: data, unmap: unmap}, nil
	}
	// Any mapping failure — unsupported platform, empty file, exotic
	// filesystem — degrades to positioned reads, never to an error.
	return &source{size: size, f: f}, nil
}

// slice returns n bytes at offset off. Mapped sources return a window into
// the mapping; fallback sources allocate and pread.
func (s *source) slice(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > s.size || n > s.size-off {
		return nil, fmt.Errorf("range [%d, %d) outside %d-byte file", off, off+n, s.size)
	}
	if s.data != nil {
		return s.data[off : off+n], nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("read of closed segment")
	}
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (s *source) Close() error {
	if s.unmap != nil {
		unmap := s.unmap
		s.unmap, s.data = nil, nil
		return unmap()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.f == nil {
		return nil
	}
	s.closed = true
	return s.f.Close()
}
