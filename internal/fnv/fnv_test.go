package fnv

import (
	stdfnv "hash/fnv"
	"testing"
	"testing/quick"
)

// Reference vectors from Landon Curt Noll's FNV test suite
// (http://isthe.com/chongo/tech/comp/fnv/).
var vectors32 = []struct {
	in   string
	fnv1 uint32
}{
	{"", 0x811c9dc5},
	{"a", 0x050c5d7e},
	{"b", 0x050c5d7d},
	{"c", 0x050c5d7c},
	{"foobar", 0x31f0b262},
}

func TestHash32Vectors(t *testing.T) {
	for _, v := range vectors32 {
		if got := Hash32Bytes([]byte(v.in)); got != v.fnv1 {
			t.Errorf("Hash32Bytes(%q) = %#x, want %#x", v.in, got, v.fnv1)
		}
	}
}

func TestHash32MatchesStdlibFNV1(t *testing.T) {
	// hash/fnv's New32 is plain FNV-1, same as ours.
	if err := quick.Check(func(b []byte) bool {
		h := stdfnv.New32()
		h.Write(b)
		return Hash32Bytes(b) == h.Sum32()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctShortStringsDiffer(t *testing.T) {
	// Not a guarantee for any hash, but these specific short keys must not
	// collide: the extractor's term table probes short terms by this hash,
	// and shard routing spreads by it.
	seen := map[uint32]string{}
	for _, s := range []string{"a", "b", "c", "ab", "ba", "abc", "cab", "index", "term"} {
		h := Hash32Bytes([]byte(s))
		if prev, ok := seen[h]; ok {
			t.Fatalf("unexpected collision: %q and %q -> %#x", prev, s, h)
		}
		seen[h] = s
	}
}

func BenchmarkHash32(b *testing.B) {
	s := []byte("the quick brown fox jumps over the lazy dog")
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		Hash32Bytes(s)
	}
}
