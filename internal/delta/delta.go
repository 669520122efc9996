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
//  3. Commit — apply the changeset in place: one batched posting scan per
//     partition removes deleted and modified files (partitions are
//     independent, so the scans run in parallel), tombstoned FileIDs are
//     retired, new files register fresh IDs, and each new term block is
//     routed to its owning partition by the same FNV FileID split
//     internal/shard uses.
//
// Diff and Extract only read; Commit mutates and must run with queries
// excluded (search.Engine.Maintain does exactly that for the public
// Catalog API).
package delta

import (
	"fmt"
	"sync"

	"desksearch/internal/extract"
	"desksearch/internal/index"
	"desksearch/internal/postings"
	"desksearch/internal/shard"
	"desksearch/internal/vfs"
	"desksearch/internal/walk"
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
func Diff(fsys vfs.FS, root string, files *index.FileTable) (*Changeset, error) {
	refs, err := walk.List(fsys, root)
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
	Skipped []Skipped
}

// Skipped records a changed file that could not be re-extracted.
type Skipped struct {
	Path string
	Err  error
}

// Extract re-extracts the plan's added and modified files with workers
// parallel Stage-2 extractors and returns the resulting plan. Each worker
// owns one extract.Extractor (they are single-owner by design), fed
// through a shared channel like the pipeline's extraction stage.
func Extract(fsys vfs.FS, cs *Changeset, opts extract.Options, workers int) *Plan {
	plan := &Plan{Changeset: cs, blocks: make(map[int]extract.TermBlock)}
	var todo []int
	for i, c := range cs.Changes {
		if c.Op == OpAdd || c.Op == OpModify {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return plan
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	type extracted struct {
		pos   int
		block extract.TermBlock
		err   error
	}
	jobs := make(chan int, len(todo))
	for _, i := range todo {
		jobs <- i
	}
	close(jobs)
	results := make(chan extracted, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := extract.New(fsys, opts)
			for i := range jobs {
				block, err := ex.File(cs.Changes[i].Path, 0)
				results <- extracted{pos: i, block: block, err: err}
			}
		}()
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			plan.Skipped = append(plan.Skipped, Skipped{Path: cs.Changes[r.pos].Path, Err: r.err})
			continue
		}
		plan.blocks[r.pos] = r.block
	}
	return plan
}

// Target is the mutable index state a plan commits into: the shared file
// table and the document-disjoint partitions (a single index, unjoined
// replicas, or the shards of a shard.Set all qualify).
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
// Commit itself parallelizes the removal scans — partitions are
// independent — but mutates the file table single-threaded.
//
// Removal scans every partition rather than only the hash-owning one
// because unjoined ReplicatedSearch replicas (an unsharded build) follow
// the pipeline's distribution order, not the FNV split; membership is the
// only universal owner test, and the batched scan costs one pass per
// partition regardless of how many files the changeset touches. New blocks
// — for added and modified files alike — are routed by shard.ShardFor, the
// rule a sharded build routes by, so shard sets keep their invariant and
// replicas stay document-disjoint (the old copy of a modified file is gone
// from every partition before the new block lands in exactly one).
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

	type step struct {
		c   Change
		pos int // position in the original changeset, the key into p.blocks
	}
	steps := make([]step, 0, len(p.Changeset.Changes))
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
		steps = append(steps, step{c: c, pos: i})
	}

	// Phase 1: batched removal of deleted and modified files, one scan per
	// partition, in parallel.
	var victimIDs []postings.FileID
	for _, s := range steps {
		if s.c.Op == OpModify || s.c.Op == OpDelete {
			victimIDs = append(victimIDs, s.c.ID)
		}
	}
	if len(victimIDs) > 0 {
		victims := postings.FromIDs(victimIDs)
		removed := make([]int, n)
		var wg sync.WaitGroup
		for i, ix := range t.Partitions {
			wg.Add(1)
			go func(i int, ix *index.Index) {
				defer wg.Done()
				removed[i] = ix.RemoveFiles(victims)
			}(i, ix)
		}
		wg.Wait()
		for i, r := range removed {
			st.PostingsRemoved += int64(r)
			if r > 0 && t.OnDirty != nil {
				t.OnDirty(i)
			}
		}
	}

	// Phase 2: file-table bookkeeping and en-bloc insertion of the fresh
	// term blocks, each routed to its FNV-owning partition. Files whose
	// re-extraction failed are left pending rather than finalized: a
	// failed modify keeps its stale size and stamp (so the next Diff still
	// sees the file as changed and retries) but records zero tokens — its
	// old postings are gone, which is what a rebuild skipping an
	// unreadable file would show — and a failed add is not registered at
	// all (the next Diff re-adds it).
	for _, s := range steps {
		c := s.c
		switch c.Op {
		case OpDelete:
			t.Files.Tombstone(c.ID)
			st.Deleted++
		case OpModify:
			block, ok := p.blocks[s.pos]
			if !ok {
				t.Files.SetTokens(c.ID, 0)
				continue
			}
			t.Files.SetMeta(c.ID, c.Size, c.ModTime)
			t.Files.SetTokens(c.ID, block.Tokens)
			commitBlock(t, c.ID, block, &st)
			st.Modified++
		case OpAdd:
			block, ok := p.blocks[s.pos]
			if !ok {
				continue
			}
			id := t.Files.Add(c.Path, c.Size, c.ModTime)
			t.Files.SetTokens(id, block.Tokens)
			commitBlock(t, id, block, &st)
			st.Added++
		}
	}
	return st
}

// commitBlock routes a fresh term block to id's owning partition, through
// the positional insertion path when the block was extracted with
// positions (a positional catalog re-extracts positionally, so updates
// keep phrase queries answerable).
func commitBlock(t Target, id postings.FileID, block extract.TermBlock, st *Stats) {
	if len(block.Terms) == 0 {
		return
	}
	owner := shard.ShardFor(id, len(t.Partitions))
	if block.Positions != nil {
		t.Partitions[owner].AddBlockPositional(id, block.Terms, block.Positions)
	} else {
		t.Partitions[owner].AddBlock(id, block.Terms, block.Counts)
	}
	st.PostingsAdded += int64(len(block.Terms))
	if t.OnDirty != nil {
		t.OnDirty(owner)
	}
}
