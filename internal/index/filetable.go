package index

import (
	"sync/atomic"

	"desksearch/internal/postings"
)

// FileTable maps FileIDs to file paths. Stage 1 builds it before extraction
// starts; batch builds never mutate it afterwards, so it is safely shared by
// all replicas and query threads. Incremental maintenance (internal/delta)
// does mutate it — registering new files and tombstoning deleted ones — and
// must do so under the search engine's maintenance lock.
//
// FileIDs are never reused: a deleted file keeps its slot as a tombstone
// (Live reports false) and a re-created path gets a fresh ID. That keeps
// every posting list ever written valid and makes removal idempotent.
type FileTable struct {
	paths  []string
	sizes  []int64
	mtimes []int64
	// tokens[id] is the file's token length (total emitted term
	// occurrences) — the document length BM25 normalizes by.
	tokens []uint32
	dead   []bool // tombstones: dead[id] once Tombstone(id) ran
	nDead  int
	// live is the sum of tokens over the live slots, kept as SetTokens and
	// Tombstone change them so LiveTokens is one load per query; atomic,
	// so SetTokens of distinct IDs may run concurrently.
	live   atomic.Uint64
	byPath map[string]postings.FileID // live paths only
}

// NewFileTable returns an empty table.
func NewFileTable() *FileTable { return newFileTable(0) }

// newFileTable returns an empty table with room for n files: its columns
// and path map are sized once, so n Adds neither grow a slice nor rehash.
func newFileTable(n int) *FileTable {
	return &FileTable{
		paths:  make([]string, 0, n),
		sizes:  make([]int64, 0, n),
		mtimes: make([]int64, 0, n),
		tokens: make([]uint32, 0, n),
		dead:   make([]bool, 0, n),
		byPath: make(map[string]postings.FileID, n),
	}
}

// Add appends a live file and returns its ID. mtime is the modification
// time change detection compares, in Unix nanoseconds (core.FileRef.ModTime).
func (t *FileTable) Add(path string, size, mtime int64) postings.FileID {
	id := postings.FileID(len(t.paths))
	t.paths = append(t.paths, path)
	t.sizes = append(t.sizes, size)
	t.mtimes = append(t.mtimes, mtime)
	t.tokens = append(t.tokens, 0)
	t.dead = append(t.dead, false)
	t.byPath[path] = id
	return id
}

// Path returns the path for id.
func (t *FileTable) Path(id postings.FileID) string { return t.paths[id] }

// Size returns the recorded byte size for id.
func (t *FileTable) Size(id postings.FileID) int64 { return t.sizes[id] }

// ModTime returns the recorded modification stamp for id.
func (t *FileTable) ModTime(id postings.FileID) int64 { return t.mtimes[id] }

// SetMeta updates the recorded size and modification stamp for id, the
// bookkeeping half of re-indexing a modified file.
func (t *FileTable) SetMeta(id postings.FileID, size, mtime int64) {
	t.sizes[id] = size
	t.mtimes[id] = mtime
}

// pendingSize is no listing's size; a manifest's uvarint carries it as 2⁶⁴−1.
const pendingSize = -1

// MarkPending records id as registered but not indexed, its read having
// failed: no tokens, and a size no listing produces, so the next update's
// diff reports it changed and retries it.
func (t *FileTable) MarkPending(id postings.FileID) {
	t.sizes[id] = pendingSize
	t.SetTokens(id, 0)
}

// Pending reports whether id was marked pending and not indexed since.
func (t *FileTable) Pending(id postings.FileID) bool { return t.sizes[id] == pendingSize }

// SetTokens records id's token length (extract.TermBlock.Tokens). Calls
// for distinct IDs may run concurrently.
func (t *FileTable) SetTokens(id postings.FileID, n uint32) {
	old := t.tokens[id]
	t.tokens[id] = n
	if !t.dead[id] {
		t.live.Add(uint64(n) - uint64(old)) // wraps to a subtraction when n < old
	}
}

// Tokens returns the recorded token length for id. It is 0 exactly for the
// files no partition holds a posting for — the term-free files, which a
// NOT query's complement must still find (search.Engine).
func (t *FileTable) Tokens(id postings.FileID) uint32 { return t.tokens[id] }

// LiveTokens returns the sum of the token lengths of all live files — the
// corpus size BM25's average document length derives from.
func (t *FileTable) LiveTokens() uint64 { return t.live.Load() }

// Live reports whether id is a live file (not tombstoned).
func (t *FileTable) Live(id postings.FileID) bool { return !t.dead[id] }

// Tombstone marks id deleted, freeing its path for re-registration under a
// new ID. Tombstoning an already-dead ID is a no-op.
func (t *FileTable) Tombstone(id postings.FileID) {
	if t.dead[id] {
		return
	}
	t.dead[id] = true
	t.nDead++
	t.live.Add(-uint64(t.tokens[id]))
	if cur, ok := t.byPath[t.paths[id]]; ok && cur == id {
		delete(t.byPath, t.paths[id])
	}
}

// Lookup returns the live file registered under path, if any. Tombstoned
// files are not found: a deleted-then-recreated path is a new file.
func (t *FileTable) Lookup(path string) (postings.FileID, bool) {
	id, ok := t.byPath[path]
	return id, ok
}

// Len returns the number of table slots, tombstones included — the
// exclusive upper bound of every FileID ever issued.
func (t *FileTable) Len() int { return len(t.paths) }

// LiveCount returns the number of live (non-tombstoned) files.
func (t *FileTable) LiveCount() int { return len(t.paths) - t.nDead }

// Paths returns all paths indexed by FileID, tombstoned slots included.
// Callers must not modify the returned slice.
func (t *FileTable) Paths() []string { return t.paths }
