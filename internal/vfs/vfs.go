// Package vfs holds MemFS, the writable in-memory io/fs file system the
// tests and the benchmark build their corpora in. Everything that reads a
// tree takes an fs.FS; a host directory is os.DirFS.
package vfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"path"
	"slices"
	"strings"
	"sync"
	"time"
)

// errIsDir is the error a file operation on a directory fails with.
var errIsDir = errors.New("is a directory")

// node is a file or directory of a MemFS, and its own fs.FileInfo and
// fs.DirEntry. A file node is never changed once linked: WriteFile links
// a new one, so a reader holding it needs no lock.
type node struct {
	name     string
	data     []byte
	mtime    int64            // write-counter stamp; 0 for directories
	children map[string]*node // nil for files
}

func (n *node) Name() string               { return n.name }
func (n *node) IsDir() bool                { return n.children != nil }
func (n *node) Type() fs.FileMode          { return n.Mode().Type() }
func (n *node) Info() (fs.FileInfo, error) { return n, nil }
func (n *node) Size() int64                { return int64(len(n.data)) }
func (n *node) ModTime() time.Time         { return time.Unix(0, n.mtime) }
func (n *node) Sys() any                   { return nil }

func (n *node) Mode() fs.FileMode {
	if n.IsDir() {
		return fs.ModeDir | 0o555
	}
	return 0o444
}

// MemFS is an in-memory file tree: an fs.FS with ReadFile, ReadDir and
// Stat, plus WriteFile and Remove. Reads are safe for concurrent use and
// may run beside writes.
//
// ReadFile returns the stored bytes without copying, so a build reads
// the corpus at memory speed; the caller must not modify them. A
// directory listing costs its own entries. Every write stamps the file's
// ModTime with the next value of a per-filesystem counter, as Unix
// nanoseconds: deterministic across runs, strictly increasing, and bumped
// even when the content is unchanged, like a real modification time.
type MemFS struct {
	mu    sync.RWMutex
	root  *node
	clock int64
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{root: &node{name: ".", children: map[string]*node{}}}
}

// split checks name by fs.ValidPath and returns its elements; "." has none.
func split(op, name string) ([]string, error) {
	if !fs.ValidPath(name) {
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrInvalid}
	}
	if name == "." {
		return nil, nil
	}
	return strings.Split(name, "/"), nil
}

// lookup returns the node at name. Callers hold m.mu.
func (m *MemFS) lookup(op, name string) (*node, error) {
	parts, err := split(op, name)
	if err != nil {
		return nil, err
	}
	n := m.root
	for _, p := range parts {
		if n = n.children[p]; n == nil {
			return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
		}
	}
	return n, nil
}

// Open implements fs.FS.
func (m *MemFS) Open(name string) (fs.File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup("open", name)
	if err != nil {
		return nil, err
	}
	if n.IsDir() {
		return &dir{node: n, entries: n.list()}, nil
	}
	return &file{Reader: bytes.NewReader(n.data), node: n}, nil
}

// ReadFile implements fs.ReadFileFS. The returned slice is the stored
// content and must not be modified.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup("read", name)
	if err != nil {
		return nil, err
	}
	if n.IsDir() {
		return nil, &fs.PathError{Op: "read", Path: name, Err: errIsDir}
	}
	return n.data, nil
}

// ReadDir implements fs.ReadDirFS: the directory's entries sorted by name.
func (m *MemFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup("readdir", name)
	if err != nil {
		return nil, err
	}
	if !n.IsDir() {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: errors.New("not a directory")}
	}
	return n.list(), nil
}

// list returns a directory's entries sorted by name. Callers hold m.mu.
func (n *node) list() []fs.DirEntry {
	out := make([]fs.DirEntry, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out
}

// Stat implements fs.StatFS.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lookup("stat", name)
}

// WriteFile creates or replaces the named file with data, creating parent
// directories as needed. The file keeps data; the caller must not modify
// it afterwards.
func (m *MemFS) WriteFile(name string, data []byte) error {
	parts, err := split("write", name)
	if err == nil && len(parts) == 0 {
		err = &fs.PathError{Op: "write", Path: name, Err: errIsDir}
	}
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for _, p := range parts[:len(parts)-1] {
		child := n.children[p]
		if child == nil {
			child = &node{name: p, children: map[string]*node{}}
			n.children[p] = child
		}
		if !child.IsDir() {
			return &fs.PathError{Op: "write", Path: name, Err: errors.New("parent is a file")}
		}
		n = child
	}
	base := parts[len(parts)-1]
	if old := n.children[base]; old != nil && old.IsDir() {
		return &fs.PathError{Op: "write", Path: name, Err: errIsDir}
	}
	m.clock++
	n.children[base] = &node{name: base, data: data, mtime: m.clock}
	return nil
}

// Remove deletes the named file, or directory with everything beneath it.
func (m *MemFS) Remove(name string) error {
	if !fs.ValidPath(name) || name == "." {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrInvalid}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	parent, err := m.lookup("remove", path.Dir(name))
	if err != nil || parent.children[path.Base(name)] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(parent.children, path.Base(name))
	return nil
}

// file is an open MemFS file.
type file struct {
	*bytes.Reader
	node *node
}

func (f *file) Stat() (fs.FileInfo, error) { return f.node, nil }
func (f *file) Close() error               { return nil }

// dir is an open MemFS directory, listed when it was opened.
type dir struct {
	node    *node
	entries []fs.DirEntry
}

func (d *dir) Stat() (fs.FileInfo, error) { return d.node, nil }
func (d *dir) Close() error               { return nil }
func (d *dir) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: d.node.name, Err: errIsDir}
}

// ReadDir implements fs.ReadDirFile.
func (d *dir) ReadDir(count int) ([]fs.DirEntry, error) {
	n := len(d.entries)
	if count > 0 {
		if n == 0 {
			return nil, io.EOF
		}
		n = min(n, count)
	}
	out := d.entries[:n:n]
	d.entries = d.entries[n:]
	return out, nil
}

var (
	_ fs.ReadFileFS  = (*MemFS)(nil)
	_ fs.ReadDirFS   = (*MemFS)(nil)
	_ fs.StatFS      = (*MemFS)(nil)
	_ fs.ReadDirFile = (*dir)(nil)
)
