// Package container provides the string-keyed hash containers the index
// generator is built on: an open-addressing HashSet used by term extractors
// for per-file duplicate elimination, and a separate-chaining HashMap used
// by the inverted index.
//
// They stand in for the Boost unordered_set/unordered_map the paper used,
// and like the original they hash keys with FNV-1 (internal/fnv).
package container

import "desksearch/internal/fnv"

const (
	// setInitialBuckets must be a power of two so the probe mask works.
	setInitialBuckets = 16
	// setMaxLoadNum/setMaxLoadDen is the load factor above which the set
	// grows (7/8 keeps probes short while wasting little memory).
	setMaxLoadNum = 7
	setMaxLoadDen = 8
)

// HashSet is a set of strings with open addressing and linear probing.
// The zero value is not ready to use; call NewHashSet.
//
// A term extractor allocates one HashSet per file (or resets a reused one)
// to drop duplicate terms before handing the file's term block to the index.
type HashSet struct {
	entries []setEntry
	n       int // live entries
}

type setEntry struct {
	key  string
	used bool
}

// NewHashSet returns a set sized for about capacity elements.
func NewHashSet(capacity int) *HashSet {
	buckets := setInitialBuckets
	for buckets*setMaxLoadNum/setMaxLoadDen < capacity {
		buckets *= 2
	}
	return &HashSet{entries: make([]setEntry, buckets)}
}

// Len returns the number of elements in the set.
func (s *HashSet) Len() int { return s.n }

// Add inserts key and reports whether it was absent.
func (s *HashSet) Add(key string) bool {
	if (s.n+1)*setMaxLoadDen > len(s.entries)*setMaxLoadNum {
		s.grow()
	}
	i := s.probe(key)
	if s.entries[i].used {
		return false
	}
	s.entries[i] = setEntry{key: key, used: true}
	s.n++
	return true
}

// Contains reports whether key is in the set.
func (s *HashSet) Contains(key string) bool {
	return s.entries[s.probe(key)].used
}

// ContainsBytes is Contains for a key held as bytes; it does not allocate.
func (s *HashSet) ContainsBytes(key []byte) bool {
	mask := uint32(len(s.entries) - 1)
	for i := fnv.Hash32Bytes(key) & mask; s.entries[i].used; i = (i + 1) & mask {
		if s.entries[i].key == string(key) {
			return true
		}
	}
	return false
}

// Reset empties the set, retaining the allocated buckets for reuse.
func (s *HashSet) Reset() {
	clear(s.entries)
	s.n = 0
}

// Keys appends the elements to dst (in unspecified order) and returns it.
func (s *HashSet) Keys(dst []string) []string {
	for i := range s.entries {
		if s.entries[i].used {
			dst = append(dst, s.entries[i].key)
		}
	}
	return dst
}

// probe returns the index of key's entry, or of the empty slot where it
// would be inserted.
func (s *HashSet) probe(key string) int {
	mask := uint32(len(s.entries) - 1)
	i := fnv.Hash32(key) & mask
	for {
		e := &s.entries[i]
		if !e.used || e.key == key {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

func (s *HashSet) grow() {
	old := s.entries
	s.entries = make([]setEntry, len(old)*2)
	for i := range old {
		if old[i].used {
			s.entries[s.probe(old[i].key)] = old[i]
		}
	}
}
