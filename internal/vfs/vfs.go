// Package vfs is the filesystem substrate of the index generator.
//
// The paper's experiments depend heavily on filesystem behaviour (directory
// traversal cost, read bandwidth, OS caching). To make the reproduction
// hermetic and deterministic this package abstracts the filesystem behind a
// small interface with these implementations:
//
//   - MemFS: an in-memory tree with deterministic traversal order, used by
//     tests, examples, and live benchmarks;
//   - OSFS: a passthrough to the host filesystem for the real tool.
//
// Disk timing is not emulated: a build reads at the speed of the file
// system behind the FS, and `indexgen -stages` measures it on the host.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotExist is returned when a path does not exist.
var ErrNotExist = errors.New("vfs: file does not exist")

// ErrIsDirectory is returned when a file operation hits a directory.
var ErrIsDirectory = errors.New("vfs: is a directory")

// DirEntry describes one entry of a directory listing.
type DirEntry struct {
	Name  string // base name within the directory
	IsDir bool
	Size  int64 // file size in bytes; 0 for directories
	// ModTime is the file's last-modification stamp: Unix nanoseconds for
	// OSFS, a monotonic per-filesystem write counter for MemFS (so change
	// detection stays deterministic in tests), and 0 for directories.
	// Incremental index maintenance compares it, together with Size, to
	// decide whether a file changed since it was indexed.
	ModTime int64
}

// FS is the filesystem seen by the index generator. Paths are
// slash-separated and relative to the filesystem root; "." names the root.
//
// Implementations must be safe for concurrent reads: Stage 2 runs many
// extractor goroutines reading files at once.
type FS interface {
	// Open returns a reader for the named file.
	Open(name string) (io.ReadCloser, error)
	// ReadFile returns the entire content of the named file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the named directory in deterministic (sorted) order.
	ReadDir(name string) ([]DirEntry, error)
	// Stat returns the entry for the named file or directory.
	Stat(name string) (DirEntry, error)
}

// WriteFS is an FS that also supports creating files and directories;
// corpus generation targets this.
type WriteFS interface {
	FS
	// WriteFile creates (or replaces) the named file with data, creating
	// parent directories as needed.
	WriteFile(name string, data []byte) error
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(name string) error
}

// memNode is a file or directory in a MemFS.
type memNode struct {
	data     []byte
	mtime    int64               // write-counter stamp; 0 for directories
	children map[string]*memNode // nil for files
}

// MemFS is an in-memory filesystem. A zero MemFS is empty and ready to use.
// Reads are safe for concurrent use; writes must not race with reads
// (corpus generation completes before indexing starts, matching the paper's
// phases).
type MemFS struct {
	mu   sync.RWMutex
	root *memNode
	// clock stamps writes with a monotonically increasing counter, the
	// in-memory stand-in for a modification time: deterministic across
	// runs, strictly increasing across writes, bumped even when a file is
	// rewritten with identical content (like a real mtime).
	clock int64
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{root: &memNode{children: map[string]*memNode{}}}
}

// clean normalizes a path into elements; it rejects escapes above the root.
func splitPath(name string) ([]string, error) {
	name = strings.Trim(name, "/")
	if name == "" || name == "." {
		return nil, nil
	}
	parts := strings.Split(name, "/")
	out := parts[:0]
	for _, p := range parts {
		switch p {
		case "", ".":
			continue
		case "..":
			if len(out) == 0 {
				return nil, fmt.Errorf("vfs: path escapes root: %q", name)
			}
			out = out[:len(out)-1]
		default:
			out = append(out, p)
		}
	}
	return out, nil
}

func (m *MemFS) lookup(name string) (*memNode, error) {
	parts, err := splitPath(name)
	if err != nil {
		return nil, err
	}
	n := m.root
	for _, p := range parts {
		if n.children == nil {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		child, ok := n.children[p]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		n = child
	}
	return n, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	data, err := m.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return &memReader{data: data}, nil
}

type memReader struct {
	data []byte
	off  int
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *memReader) Close() error { return nil }

// ReadFile implements FS. The returned slice aliases the stored content and
// must not be modified.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	if n.children != nil {
		return nil, fmt.Errorf("%w: %s", ErrIsDirectory, name)
	}
	return n.data, nil
}

// ReadDir implements FS; entries are sorted by name so traversal order is
// deterministic across runs.
func (m *MemFS) ReadDir(name string) ([]DirEntry, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	if n.children == nil {
		return nil, fmt.Errorf("vfs: not a directory: %s", name)
	}
	out := make([]DirEntry, 0, len(n.children))
	for base, child := range n.children {
		e := DirEntry{Name: base, IsDir: child.children != nil}
		if !e.IsDir {
			e.Size = int64(len(child.data))
			e.ModTime = child.mtime
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (DirEntry, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(name)
	if err != nil {
		return DirEntry{}, err
	}
	parts, _ := splitPath(name)
	base := "."
	if len(parts) > 0 {
		base = parts[len(parts)-1]
	}
	e := DirEntry{Name: base, IsDir: n.children != nil}
	if !e.IsDir {
		e.Size = int64(len(n.data))
		e.ModTime = n.mtime
	}
	return e, nil
}

// WriteFile implements WriteFS.
func (m *MemFS) WriteFile(name string, data []byte) error {
	parts, err := splitPath(name)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("vfs: cannot write to root")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := n.children[p]
		if !ok {
			child = &memNode{children: map[string]*memNode{}}
			n.children[p] = child
		}
		if child.children == nil {
			return fmt.Errorf("vfs: %s: parent is a file", name)
		}
		n = child
	}
	base := parts[len(parts)-1]
	if existing, ok := n.children[base]; ok && existing.children != nil {
		return fmt.Errorf("%w: %s", ErrIsDirectory, name)
	}
	m.clock++
	n.children[base] = &memNode{data: data, mtime: m.clock}
	return nil
}

// Remove deletes the named file or (recursively) directory. Removing a
// missing path is an error, matching os.RemoveAll's file semantics closely
// enough for the incremental-update tests that churn a corpus.
func (m *MemFS) Remove(name string) error {
	parts, err := splitPath(name)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("vfs: cannot remove root")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := n.children[p]
		if !ok || child.children == nil {
			return fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		n = child
	}
	base := parts[len(parts)-1]
	if _, ok := n.children[base]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(n.children, base)
	return nil
}

// MkdirAll implements WriteFS.
func (m *MemFS) MkdirAll(name string) error {
	parts, err := splitPath(name)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			child = &memNode{children: map[string]*memNode{}}
			n.children[p] = child
		}
		if child.children == nil {
			return fmt.Errorf("vfs: %s: is a file", name)
		}
		n = child
	}
	return nil
}

// OSFS exposes a host directory as an FS rooted at dir.
type OSFS struct {
	dir string
}

// NewOSFS returns an FS backed by the host filesystem, rooted at dir.
func NewOSFS(dir string) *OSFS { return &OSFS{dir: dir} }

func (o *OSFS) host(name string) (string, error) {
	parts, err := splitPath(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(append([]string{o.dir}, parts...)...), nil
}

// Open implements FS.
func (o *OSFS) Open(name string) (io.ReadCloser, error) {
	p, err := o.host(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f, err
}

// ReadFile implements FS.
func (o *OSFS) ReadFile(name string) ([]byte, error) {
	p, err := o.host(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return data, err
}

// ReadDir implements FS.
func (o *OSFS) ReadDir(name string) ([]DirEntry, error) {
	p, err := o.host(name)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return nil, err
	}
	out := make([]DirEntry, 0, len(entries))
	for _, e := range entries {
		de := DirEntry{Name: e.Name(), IsDir: e.IsDir()}
		if !e.IsDir() {
			if info, err := e.Info(); err == nil {
				de.Size = info.Size()
				de.ModTime = info.ModTime().UnixNano()
			}
		}
		out = append(out, de)
	}
	// os.ReadDir sorts already; keep the invariant explicit.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stat implements FS.
func (o *OSFS) Stat(name string) (DirEntry, error) {
	p, err := o.host(name)
	if err != nil {
		return DirEntry{}, err
	}
	info, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return DirEntry{}, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return DirEntry{}, err
	}
	e := DirEntry{Name: info.Name(), IsDir: info.IsDir()}
	if !e.IsDir {
		e.Size = info.Size()
		e.ModTime = info.ModTime().UnixNano()
	}
	return e, nil
}

// WriteFile implements WriteFS.
func (o *OSFS) WriteFile(name string, data []byte) error {
	p, err := o.host(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// MkdirAll implements WriteFS.
func (o *OSFS) MkdirAll(name string) error {
	p, err := o.host(name)
	if err != nil {
		return err
	}
	return os.MkdirAll(p, 0o755)
}

var (
	_ WriteFS = (*MemFS)(nil)
	_ WriteFS = (*OSFS)(nil)
)
