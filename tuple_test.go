package desksearch_test

// The thread tuple (x, y) chooses how many goroutines extract and insert,
// never what they produce: a build's heap partitions and saved bytes are
// a function of the corpus, Shards and Positions alone. Every answer is
// read from those, so no answer can depend on the tuple either, and the
// oracle holds only the sequential baseline and the default tuple to the
// reference.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"desksearch"
)

// pinnedTuples are the fixed tuples of TestBuildIsAFunctionOfTheCorpus,
// the sequential baseline (1, 0) first.
var pinnedTuples = [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 2}, {4, 4}}

// tupleOptions are the options of tuple (x, y) at one shard count and kind.
func tupleOptions(tuple [2]int, shards int, positions bool) desksearch.Options {
	return desksearch.Options{Extractors: tuple[0], Updaters: tuple[1], Shards: shards, Positions: positions}
}

// savedDigest saves cat into a fresh directory and hashes what it wrote.
func savedDigest(t *testing.T, cat *desksearch.Catalog) string {
	t.Helper()
	dir := t.TempDir()
	if err := cat.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	return desksearch.DirDigest(t, dir)
}

// checkSameBuilds holds the catalog built under each of tuples to the one
// built under the first, (1, 0): first their heap partitions, then their
// saved bytes.
func checkSameBuilds(t *testing.T, label string, tuples [][2]int, cats []*desksearch.Catalog) {
	t.Helper()
	for i := 1; i < len(cats); i++ {
		if !desksearch.SamePartitions(cats[0], cats[i]) {
			t.Fatalf("%s: %v: partitions differ from %v's", label, tuples[i], tuples[0])
		}
	}
	want := savedDigest(t, cats[0])
	for i := 1; i < len(cats); i++ {
		if got := savedDigest(t, cats[i]); got != want {
			t.Fatalf("%s: %v: saved digest %s, %v's %s", label, tuples[i], got, tuples[0], want)
		}
	}
}

// TestBuildIsAFunctionOfTheCorpus builds seeded oracle corpora under the
// pinned tuples and three random ones (x in 1..8, y in 0..8), each with 1–5
// shards, plain and positional, and holds every build to the (1, 0) build
// of its shard count and kind: partitions Index.Equal, then SaveDir
// digests equal. Both hold again after one Update of adds, edits and
// deletes, which re-extracts with an x-sized pool.
func TestBuildIsAFunctionOfTheCorpus(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			oc := newOracleCorpus(t, rng, 20+rng.Intn(30))
			tuples := slices.Clone(pinnedTuples)
			for range 3 {
				tuples = append(tuples, [2]int{1 + rng.Intn(8), rng.Intn(9)})
			}
			// One group per shard count and kind, a catalog per tuple.
			type group struct {
				name string
				cats []*desksearch.Catalog
			}
			var groups []group
			for shards := 1; shards <= 5; shards++ {
				for _, positions := range []bool{false, true} {
					g := group{name: fmt.Sprintf("shards=%d positions=%v", shards, positions)}
					for _, tuple := range tuples {
						cat, err := desksearch.IndexFS(oc.fs, ".", tupleOptions(tuple, shards, positions))
						if err != nil {
							t.Fatal(err)
						}
						g.cats = append(g.cats, cat)
					}
					groups = append(groups, g)
				}
			}
			for _, stage := range []string{"built", "updated"} {
				if stage == "updated" {
					oc.churn(t, rng)
					for _, g := range groups {
						for _, cat := range g.cats {
							if _, err := cat.Update(oc.fs, "."); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, g := range groups {
					checkSameBuilds(t, stage+", "+g.name, tuples, g.cats)
				}
			}
		})
	}
}

// FuzzBuildTuples holds one build to the (1, 0) build of the same shard
// count and kind over one of eight seeded oracle corpora. The fuzzer's
// bytes choose the corpus, the tuple, the shard count and the kind; x is
// clamped to 1..8, y to 0..8 and Shards to 1..5, so no input asks for
// more goroutines than that.
func FuzzBuildTuples(f *testing.F) {
	f.Add(int64(0), uint8(1), uint8(1), uint8(2), true)
	f.Add(int64(5), uint8(7), uint8(8), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, x, y, shards uint8, positions bool) {
		oc := newOracleCorpus(t, rand.New(rand.NewSource(seed&7)), 30)
		tuples := [][2]int{{1, 0}, {1 + int(x%8), int(y % 9)}}
		var cats []*desksearch.Catalog
		for _, tuple := range tuples {
			cat, err := desksearch.IndexFS(oc.fs, ".", tupleOptions(tuple, 1+int(shards%5), positions))
			if err != nil {
				t.Fatal(err)
			}
			cats = append(cats, cat)
		}
		checkSameBuilds(t, fmt.Sprintf("seed %d, %d shards, positions=%v", seed&7, 1+shards%5, positions), tuples, cats)
	})
}

// FuzzUpdateTuples holds one update under a tuple the fuzzer picks to a
// (1, 0) rebuild of the tree it leaves, over one of eight seeded oracle
// corpora: the catalog is built under the tuple (x clamped to 1..8, y to
// 0..8, 1–5 shards, plain or positional), one churn round of adds,
// modifies and deletes drawn from the fuzzer's bytes is applied with
// Update, which runs at the catalog's tuple, and every partition is held
// to the rebuild's by path.
func FuzzUpdateTuples(f *testing.F) {
	f.Add(int64(0), uint8(1), uint8(1), uint8(2), true, []byte{1, 1, 0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 2, 5, 0, 3, 9, 1, 4, 0, 2, 7})
	f.Add(int64(5), uint8(7), uint8(8), uint8(4), false, []byte{3, 2, 7, 1, 4, 1, 5, 2, 6, 3, 7, 0, 9, 8, 1, 1, 30, 5, 4, 3, 2, 1, 0, 2, 11})
	f.Fuzz(func(t *testing.T, seed int64, x, y, shards uint8, positions bool, churn []byte) {
		oc := newOracleCorpus(t, rand.New(rand.NewSource(seed&7)), 30)
		n := 1 + int(shards%5)
		tuple := [2]int{1 + int(x%8), int(y % 9)}
		cat, err := desksearch.IndexFS(oc.fs, ".", tupleOptions(tuple, n, positions))
		if err != nil {
			t.Fatal(err)
		}
		oc.churn(t, &byteChooser{b: churn})
		if _, err := cat.Update(oc.fs, "."); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := desksearch.IndexFS(oc.fs, ".", tupleOptions([2]int{1, 0}, n, positions))
		if err != nil {
			t.Fatal(err)
		}
		desksearch.CheckPartitionsMatchRebuild(t, fmt.Sprintf("seed %d, %v, %d shards, positions=%v", seed&7, tuple, n, positions), cat, rebuilt)
	})
}
