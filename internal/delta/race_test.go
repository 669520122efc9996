package delta

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"desksearch/internal/index"
	"desksearch/internal/search"
)

// TestApplyDuringConcurrentQuery exercises the exact interleaving the
// daemon's -watch mode lives on: full Diff → Prepare → Commit cycles
// applied through the engine's maintenance lock while queries hammer the
// same partitions. Under -race it proves the commit phase never lets a
// query observe a half-applied changeset or a posting list being mutated
// mid-read; functionally it checks that after the final apply the index
// answers only from the final tree.
func TestApplyDuringConcurrentQuery(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 2)
	engine := search.NewEngine(res.Files, index.Partitions(res.Indexes())...)
	target := Target{Files: res.Files, Partitions: res.Indexes(), OnDirty: res.Set.MarkDirty}

	queries := []*search.Query{
		search.MustParse("alpha"),
		search.MustParse("alpha OR beta"),
		search.MustParse("-gamma"),
		search.MustParse("churn -delta"),
		search.MustParse("(alpha OR churn) -epsilon"),
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := search.Request{Query: queries[(i+w)%len(queries)], Limit: 3}
				if _, err := engine.Query(ctx, req); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// The updater: churn one file through adds, modifies, and a delete,
	// committing each changeset under the maintenance lock — the
	// public-API path (Catalog.Apply) minus the facade.
	apply := func() {
		t.Helper()
		cs, err := Diff(fs, ".", res.Files)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Empty() {
			return
		}
		plan := Prepare(fs, cs, res)
		if len(plan.Skipped) != 0 {
			t.Fatalf("extraction skipped files: %+v", plan.Skipped)
		}
		engine.Maintain(func() { plan.Commit(target) })
	}

	for i := 0; i < 50; i++ {
		content := fmt.Sprintf("churn alpha round%d", i)
		if i%10 == 9 {
			if err := fs.Remove("docs/churn.txt"); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := fs.WriteFile("docs/churn.txt", []byte(content)); err != nil {
				t.Fatal(err)
			}
		}
		apply()
	}
	close(stop)
	wg.Wait()

	// 50 rounds end on i=49, a delete, so churn.txt must be gone: its
	// last content (round48) and its churn marker must both have left the
	// index, while the untouched seed files still answer.
	if hits := searchAll(t, engine, "round48"); len(hits) != 0 {
		t.Fatalf("stale content still indexed: %+v", hits)
	}
	if hits := searchAll(t, engine, "churn"); len(hits) != 0 {
		t.Fatalf("deleted file still indexed: %+v", hits)
	}
	if hits := searchAll(t, engine, "alpha"); len(hits) != 2 {
		t.Fatalf("seed files damaged by churn: alpha hits = %+v", hits)
	}
	if engine.Generation() == 0 {
		t.Error("maintenance commits did not advance the engine generation")
	}
}

// TestPrepareRunsBesideReaders: an update's unlocked step — numbering, the
// pipeline and every owner's seal — runs to completion while a reader
// holds the engine's read lock, and leaves the live index as it was; only
// Commit, under the write lock, changes what queries see.
func TestPrepareRunsBesideReaders(t *testing.T) {
	fs := seedFS(t)
	res := build(t, fs, 3)
	engine := search.NewEngine(res.Files, index.Partitions(res.Indexes())...)
	for name, body := range map[string]string{"docs/a.txt": "alpha rewritten", "docs/new.txt": "zeta alpha"} {
		if err := fs.WriteFile(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := Diff(fs, ".", res.Files)
	if err != nil {
		t.Fatal(err)
	}
	prepared := make(chan *Plan)
	var plan *Plan
	engine.View(func() {
		go func() { prepared <- Prepare(fs, cs, res) }()
		select {
		case plan = <-prepared:
		case <-time.After(time.Minute):
			t.Fatal("Prepare did not finish while a reader held the engine")
		}
	})
	if n := res.Files.Len(); n != 4 {
		t.Errorf("Prepare grew the live file table to %d slots", n)
	}
	if hits := searchAll(t, engine, "zeta OR rewritten"); len(hits) != 0 {
		t.Errorf("Prepare changed what queries see: %+v", hits)
	}
	engine.Maintain(func() { plan.Commit(Target{Files: res.Files, Partitions: res.Indexes()}) })
	if hits := searchAll(t, engine, "zeta OR rewritten"); len(hits) != 2 {
		t.Errorf("after Commit: %+v, want both changed files", hits)
	}
}
