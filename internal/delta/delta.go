// Package delta implements catalog-level incremental index maintenance:
// keeping a built index in step with a living file tree without the full
// rebuild the paper's batch pipeline performs.
//
// An update is the build run over a changeset, in three steps:
//
//  1. Diff — walk the tree (Stage 1's traversal) and compare every file
//     against the index's FileTable by path, size, and modification stamp,
//     producing a Changeset of added, modified, and deleted files. A file
//     the index holds pending (index.FileTable.Pending) is reported
//     modified, so an unreadable file is retried.
//  2. Prepare — number the changeset against the file table (modified
//     files keep their FileIDs, added files take the next ones in
//     traversal order) and run the build's own Stages 2 and 3
//     (core.Pipeline) over the added and modified files at the catalog's
//     tuple. Each partition's owner seals a fresh partition of the
//     changed files it owns, routed by the FNV FileID split internal/shard
//     routes builds and checks directories by.
//  3. Commit — swap the changes in: register, update and tombstone the
//     file-table entries, then at each partition with work remove its
//     deleted and modified files in one batched posting scan and join its
//     fresh partition in one merge per touched posting list. No other
//     partition is touched.
//
// Diff and Prepare only read the index; Commit mutates it and must run with
// queries excluded (search.Engine.Maintain does exactly that for the
// public Catalog API). Prepare and Commit must not be separated by another
// commit to the same index.
package delta

import (
	"fmt"
	"io/fs"

	"desksearch/internal/core"
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
	// ID is the file's existing FileID for OpModify and OpDelete. An
	// OpAdd has none: Prepare numbers it, and only Commit grows the table.
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

// Plan is a numbered changeset whose added and modified files the
// pipeline has already read into sealed fresh partitions, ready to commit.
type Plan struct {
	// base is the file table's length when the plan was numbered: a file
	// in read with an ID at or past it is an add.
	base    postings.FileID
	deleted []postings.FileID
	// read lists the modified files and then the added ones, each under
	// the FileID it commits under; out is what the pipeline made of them.
	read []core.FileRef
	out  core.Output
	// Skipped lists the files the plan could not read: the adds it dropped
	// and the modified files it leaves pending, less those already pending
	// (index.FileTable.Pending).
	Skipped []core.Skipped
}

// Prepare numbers cs against res's file table and runs the build's
// Stages 2 and 3 over its added and modified files at res's tuple, into as
// many fresh partitions as res.Set has; it writes nothing of res.
//
// A stale changeset (re-applied, or computed before an intervening
// update) is normalized first: an add whose path is registered becomes a
// modify of that file, and a change to a retired FileID is dropped.
// Modified files keep their IDs, and added files take Files.Len()+k in
// traversal order. A failed add is not registered, so the next Diff
// re-adds it: when any add fails, Prepare drops the failed adds,
// renumbers and runs the pipeline again, keeping the table's IDs dense.
func Prepare(fsys fs.FS, cs *Changeset, res *core.Result) *Plan {
	files := res.Files
	p := &Plan{base: postings.FileID(files.Len())}
	var added []core.FileRef
	for _, c := range cs.Changes {
		if c.Op == OpAdd {
			if id, ok := files.Lookup(c.Path); ok {
				c.Op, c.ID = OpModify, id
			}
		} else if !files.Live(c.ID) {
			continue
		}
		ref := core.FileRef{Path: c.Path, Size: c.Size, ModTime: c.ModTime, ID: c.ID}
		switch c.Op {
		case OpDelete:
			p.deleted = append(p.deleted, c.ID)
		case OpModify:
			p.read = append(p.read, ref)
		case OpAdd:
			added = append(added, ref)
		}
	}
	modified := len(p.read)
	for {
		for k := range added {
			added[k].ID = p.base + postings.FileID(k)
		}
		p.read = append(p.read[:modified], added...)
		p.out = core.Pipeline(fsys, res.Config, p.read, res.Set.Len())
		kept := added[:0]
		for k, f := range added {
			if err := p.out.Errs[modified+k]; err != nil {
				p.Skipped = append(p.Skipped, core.Skipped{Path: f.Path, Err: err})
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == len(added) {
			break
		}
		added = kept
	}
	for k, err := range p.out.Errs[:modified] {
		if err != nil && !files.Pending(p.read[k].ID) {
			p.Skipped = append(p.Skipped, core.Skipped{Path: p.read[k].Path, Err: err})
		}
	}
	return p
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

// Commit swaps the plan into t, the index it was prepared against, and
// returns what changed. The caller must exclude concurrent queries
// (search.Engine.Maintain). No term block is inserted here: Commit writes
// the file table, then, one fanout.Run task per partition with work,
// removes the owner's deleted and modified files in one batch and joins
// its fresh partition. The order matters: a modified file keeps its
// FileID, so removing after the join would delete the fresh postings.
// Every build routes by the FNV split, and every open refuses a directory
// that does not, so a file's postings live at ShardFor(id, n) and nowhere
// else: a partition no change routes to is not touched, and an empty
// fresh partition is not joined. A modified file whose read failed is
// marked pending (index.FileTable.MarkPending): its old postings go, as a
// rebuild skipping an unreadable file would show, and the next Diff
// reports it again.
func (p *Plan) Commit(t Target) Stats {
	var st Stats
	n := len(t.Partitions)
	victims := make([][]postings.FileID, n)
	victim := func(id postings.FileID) {
		owner := shard.ShardFor(id, n)
		victims[owner] = append(victims[owner], id)
	}
	for _, id := range p.deleted {
		t.Files.Tombstone(id)
		victim(id)
		st.Deleted++
	}
	for k, f := range p.read {
		switch {
		case p.out.Errs[k] != nil:
			t.Files.MarkPending(f.ID)
		case f.ID >= p.base:
			if id := t.Files.Add(f.Path, f.Size, f.ModTime); id != f.ID {
				panic(fmt.Sprintf("delta: %s prepared as file %d, registered as %d", f.Path, f.ID, id))
			}
			t.Files.SetTokens(f.ID, p.out.Tokens[k])
			st.Added++
			continue
		default:
			t.Files.SetMeta(f.ID, f.Size, f.ModTime)
			t.Files.SetTokens(f.ID, p.out.Tokens[k])
			st.Modified++
		}
		victim(f.ID)
	}

	// One fan-out over the owners with work; a join consumes its fresh
	// partition, so the postings it adds are counted first.
	added, removed := make([]int64, n), make([]int, n)
	for owner, fresh := range p.out.Parts {
		added[owner] = fresh.NumPostings()
	}
	fanout.Run(n, func(owner int) error {
		if len(victims[owner]) > 0 {
			removed[owner] = t.Partitions[owner].RemoveFiles(postings.FromIDs(victims[owner]))
		}
		if added[owner] > 0 {
			t.Partitions[owner].Join(p.out.Parts[owner])
		}
		return nil
	})
	for owner, r := range removed {
		st.PostingsRemoved += int64(r)
		st.PostingsAdded += added[owner]
		if (r > 0 || added[owner] > 0) && t.OnDirty != nil {
			t.OnDirty(owner)
		}
	}
	return st
}
