package desksearch

import "testing"

// Hooks for the external test package (package desksearch_test), which
// sees only what is exported.

// DirDigest is dirDigest: a hash of every file SaveDir left under dir.
func DirDigest(t *testing.T, dir string) string { return dirDigest(t, dir) }

// SamePartitions reports whether a and b hold as many heap partitions,
// each Index.Equal to the other's partition at the same place.
func SamePartitions(a, b *Catalog) bool {
	pa, pb := a.result.Indexes(), b.result.Indexes()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !pa[i].Equal(pb[i]) {
			return false
		}
	}
	return true
}

// CheckPartitionsMatchRebuild is checkPartitionsMatchRebuild: every
// partition of the updated cat held, by path, to a rebuild of its tree.
func CheckPartitionsMatchRebuild(t *testing.T, at string, cat, rebuilt *Catalog) {
	t.Helper()
	checkPartitionsMatchRebuild(t, at, cat, rebuilt)
}
