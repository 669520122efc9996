// Package delta implements catalog-level incremental index maintenance:
// keeping a built index in step with a living file tree without the full
// rebuild the paper's batch pipeline performs.
//
// An update runs in three phases, mirroring the pipeline's stages:
//
//  1. Diff — walk the tree (Stage 1's traversal) and compare every file
//     against the index's FileTable by path, size, and modification stamp,
//     producing a Changeset of added, modified, and deleted files.
//  2. Extract — re-extract the added and modified files with a pool of
//     Stage-2 extractors, one per worker, in parallel.
//  3. Commit — apply the changeset in place: tombstoned FileIDs are
//     retired and new files register fresh IDs, and every change goes to
//     the one partition that owns its file by the FNV FileID split
//     internal/shard routes builds and checks directories by. Each owner
//     with work, in parallel, removes its deleted and modified files in
//     one batched posting scan, then joins its fresh term blocks in one
//     merge per touched posting list; no other partition is touched.
//
// Diff and Extract only read; Commit mutates and must run with queries
// excluded (search.Engine.Maintain does exactly that for the public
// Catalog API).
package delta

import (
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"

	"desksearch/internal/core"
	"desksearch/internal/extract"
	"desksearch/internal/fanout"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
)

// Op is the kind of a file-level change.
type Op uint8

const (
	// OpAdd is a file present in the tree but not in the index.
	OpAdd Op = iota
	// OpModify is a file whose size or modification stamp differs from the
	// indexed state.
	OpModify
	// OpDelete is an indexed file no longer present in the tree.
	OpDelete
)

// String returns a short human-readable name for the operation.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpModify:
		return "modify"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Change is one file-level difference between the indexed state and the
// live tree.
type Change struct {
	Op   Op
	Path string
	// ID is the file's existing FileID for OpModify and OpDelete. OpAdd
	// changes have no ID until commit time: FileIDs are never reused, and
	// only the commit phase may grow the file table.
	ID postings.FileID
	// Size and ModTime are the live tree's values (zero for OpDelete).
	Size    int64
	ModTime int64
}

// Changeset is the list of differences Diff found, in a deterministic
// order: deletions in ascending FileID order first, then additions and
// modifications in tree-traversal order (so added files receive IDs in the
// same relative order a fresh build would assign them).
type Changeset struct {
	Changes []Change
}

// Empty reports whether the changeset contains no changes.
func (cs *Changeset) Empty() bool { return len(cs.Changes) == 0 }

// Counts returns the number of additions, modifications, and deletions.
func (cs *Changeset) Counts() (added, modified, deleted int) {
	for _, c := range cs.Changes {
		switch c.Op {
		case OpAdd:
			added++
		case OpModify:
			modified++
		case OpDelete:
			deleted++
		}
	}
	return
}

// String summarizes the changeset.
func (cs *Changeset) String() string {
	a, m, d := cs.Counts()
	return fmt.Sprintf("+%d ~%d -%d", a, m, d)
}

// Diff walks fsys from root and compares the tree against the indexed
// state in files. It performs Stage 1's traversal plus one map lookup per
// file; nothing is read or extracted yet.
func Diff(fsys fs.FS, root string, files *index.FileTable) (*Changeset, error) {
	refs, err := core.ListFiles(fsys, root)
	if err != nil {
		return nil, fmt.Errorf("delta: diff traversal: %w", err)
	}
	cs := &Changeset{}
	seen := make([]bool, files.Len())
	var addMod []Change
	for _, ref := range refs {
		id, ok := files.Lookup(ref.Path)
		if !ok {
			addMod = append(addMod, Change{Op: OpAdd, Path: ref.Path, Size: ref.Size, ModTime: ref.ModTime})
			continue
		}
		seen[id] = true
		if files.Size(id) != ref.Size || files.ModTime(id) != ref.ModTime {
			addMod = append(addMod, Change{Op: OpModify, Path: ref.Path, ID: id, Size: ref.Size, ModTime: ref.ModTime})
		}
	}
	for id, ok := range seen {
		fid := postings.FileID(id)
		if !ok && files.Live(fid) {
			cs.Changes = append(cs.Changes, Change{Op: OpDelete, Path: files.Path(fid), ID: fid})
		}
	}
	cs.Changes = append(cs.Changes, addMod...)
	return cs, nil
}

// Plan is a changeset with the term blocks of its added and modified files
// already extracted, ready to commit.
type Plan struct {
	Changeset *Changeset
	// blocks maps a change's position in Changeset.Changes to its extracted
	// duplicate-free term block (terms plus occurrence counts). Unreadable
	// files have no entry; Commit leaves their indexed state positioned so
	// the next Diff sees them as still-pending changes and retries.
	blocks map[int]extract.TermBlock
	// Skipped lists the files whose extraction failed.
	Skipped []core.Skipped
}

// Extract re-extracts the plan's added and modified files with workers
// parallel Stage-2 extractors and returns the resulting plan. Each worker
// owns one extract.Extractor (they are single-owner by design) and takes
// the next file not yet taken, so a large file holds up one worker only.
func Extract(fsys fs.FS, cs *Changeset, opts extract.Options, workers int) *Plan {
	plan := &Plan{Changeset: cs, blocks: make(map[int]extract.TermBlock)}
	var todo []int
	for i, c := range cs.Changes {
		if c.Op != OpDelete {
			todo = append(todo, i)
		}
	}
	blocks := make([]extract.TermBlock, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(workers, len(todo))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := extract.New(fsys, opts)
			for k := int(next.Add(1) - 1); k < len(todo); k = int(next.Add(1) - 1) {
				blocks[k], errs[k] = ex.File(cs.Changes[todo[k]].Path, 0)
			}
		}()
	}
	wg.Wait()
	for k, i := range todo {
		if errs[k] != nil {
			plan.Skipped = append(plan.Skipped, core.Skipped{Path: cs.Changes[i].Path, Err: errs[k]})
		} else {
			plan.blocks[i] = blocks[k]
		}
	}
	return plan
}

// Target is the mutable index state a plan commits into: the shared file
// table and the document-disjoint partitions, such as the shards of a
// shard.Set.
type Target struct {
	Files      *index.FileTable
	Partitions []*index.Index
	// OnDirty, when non-nil, is called once for each partition the commit
	// modified — the hook dirty-segment persistence hangs off.
	OnDirty func(partition int)
}

// Stats summarizes a committed update.
type Stats struct {
	Added, Modified, Deleted       int
	PostingsRemoved, PostingsAdded int64
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("+%d ~%d -%d files (-%d/+%d postings)",
		s.Added, s.Modified, s.Deleted, s.PostingsRemoved, s.PostingsAdded)
}

// Commit applies the plan to t in place and returns what changed.
//
// The caller must exclude concurrent queries (search.Engine.Maintain);
// Commit mutates the file table single-threaded and the partitions in
// parallel, one fanout.Run task per partition.
//
// The partitions are t's ShardFor-routed shards — every build routes by
// the FNV split, and every open refuses a directory that does not — so a
// file's postings live at its owner, ShardFor(id, n), and nowhere else.
// One pass over the changeset does the file-table bookkeeping and puts
// each deleted or modified file's ID and each fresh term block under its
// owner; then every owner with work removes its victims and only then
// joins its fresh blocks. The order matters: a modified file keeps its
// FileID, so removing after the join would delete the fresh postings.
// Removal marks the owner's victims in a bitmap (postings.Mark) and walks
// its dictionary once: a list wholly outside the marked range is skipped
// after two comparisons, and any other is scanned once against the marks.
// A partition no change routes to is not touched.
//
// Commit is idempotent and safe on stale changesets: before applying, the
// plan is normalized against the live file table — an add whose path is
// already registered becomes a modify of that file, and modifies or
// deletes of an already-retired FileID are dropped — so re-applying a
// changeset (or one computed before an intervening update) cannot
// duplicate table entries or attach postings to tombstones.
func (p *Plan) Commit(t Target) Stats {
	var st Stats
	n := len(t.Partitions)

	// File-table bookkeeping, with each change routed to its owner. Files
	// whose re-extraction failed are left pending rather than finalized:
	// a failed modify keeps its stale size and stamp (so the next Diff
	// still sees the file as changed and retries) but records zero tokens
	// — its old postings go, which is what a rebuild skipping an
	// unreadable file would show — and a failed add is not registered at
	// all (the next Diff re-adds it).
	work := make([]ownerWork, n)
	for i, c := range p.Changeset.Changes {
		switch c.Op {
		case OpAdd:
			if id, ok := t.Files.Lookup(c.Path); ok {
				c.Op, c.ID = OpModify, id
			}
		case OpModify, OpDelete:
			if !t.Files.Live(c.ID) {
				continue
			}
		}
		switch c.Op {
		case OpDelete:
			w := &work[shard.ShardFor(c.ID, n)]
			w.victims = append(w.victims, c.ID)
			t.Files.Tombstone(c.ID)
			st.Deleted++
		case OpModify:
			w := &work[shard.ShardFor(c.ID, n)]
			w.victims = append(w.victims, c.ID)
			block, ok := p.blocks[i]
			if !ok {
				t.Files.SetTokens(c.ID, 0)
				continue
			}
			t.Files.SetMeta(c.ID, c.Size, c.ModTime)
			t.Files.SetTokens(c.ID, block.Tokens)
			w.stage(c.ID, block, &st)
			st.Modified++
		case OpAdd:
			block, ok := p.blocks[i]
			if !ok {
				continue
			}
			id := t.Files.Add(c.Path, c.Size, c.ModTime)
			t.Files.SetTokens(id, block.Tokens)
			work[shard.ShardFor(id, n)].stage(id, block, &st)
			st.Added++
		}
	}

	// One fan-out over the owners with work. A modified file keeps its
	// FileID, so its postings land mid-list, and a positional list moves
	// the positions of every later posting on an insert there: an owner's
	// fresh blocks are therefore staged in one index.Builder, built, and
	// joined once, so each touched list takes one linear merge per commit,
	// not one insert per file.
	removed := make([]int, n)
	fanout.Run(n, func(owner int) error {
		w := &work[owner]
		if len(w.victims) == 0 && len(w.blocks) == 0 {
			return nil
		}
		ix := t.Partitions[owner]
		removed[owner] = ix.RemoveFiles(postings.FromIDs(w.victims))
		if len(w.blocks) == 0 {
			return nil
		}
		fresh := index.NewBuilder(false) // Join keeps the partition's kind
		for _, block := range w.blocks {
			core.AddBlock(fresh, block)
		}
		ix.Join(fresh.Index())
		return nil
	})
	for owner, r := range removed {
		st.PostingsRemoved += int64(r)
		if (r > 0 || len(work[owner].blocks) > 0) && t.OnDirty != nil {
			t.OnDirty(owner)
		}
	}
	return st
}

// ownerWork is what a commit does at one partition: the files to remove
// from it and the fresh term blocks to join into it.
type ownerWork struct {
	victims []postings.FileID
	blocks  []extract.TermBlock
}

// stage queues a fresh term block for the owner's join under its file's
// ID, which the extraction that made it ran before the commit numbered
// added files.
func (w *ownerWork) stage(id postings.FileID, block extract.TermBlock, st *Stats) {
	if len(block.Terms) == 0 {
		return
	}
	block.File = id
	w.blocks = append(w.blocks, block)
	st.PostingsAdded += int64(len(block.Terms))
}
