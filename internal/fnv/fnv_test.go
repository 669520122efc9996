package fnv

import (
	"encoding/binary"
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

var vectors64 = []struct {
	in   string
	fnv1 uint64
}{
	{"", 0xcbf29ce484222325},
	{"a", 0xaf63bd4c8601b7be},
	{"foobar", 0x340d8765a4dda9c2},
}

func TestHash32Vectors(t *testing.T) {
	for _, v := range vectors32 {
		if got := Hash32Bytes([]byte(v.in)); got != v.fnv1 {
			t.Errorf("Hash32Bytes(%q) = %#x, want %#x", v.in, got, v.fnv1)
		}
	}
}

func TestHash64Vectors(t *testing.T) {
	for _, v := range vectors64 {
		if got := Hash64Bytes([]byte(v.in)); got != v.fnv1 {
			t.Errorf("Hash64Bytes(%q) = %#x, want %#x", v.in, got, v.fnv1)
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

func TestHash64MatchesStdlibFNV1(t *testing.T) {
	if err := quick.Check(func(b []byte) bool {
		h := stdfnv.New64()
		h.Write(b)
		return Hash64Bytes(b) == h.Sum64()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestStreaming64EqualsOneShot(t *testing.T) {
	if err := quick.Check(func(a, b []byte) bool {
		d := New64()
		d.Write(a)
		d.Write(b)
		whole := append(append([]byte{}, a...), b...)
		return d.Sum64() == Hash64Bytes(whole)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	d64 := New64()
	d64.Write([]byte("polluted state"))
	d64.Reset()
	if d64.Sum64() != Hash64Bytes(nil) {
		t.Errorf("Reset did not restore offset basis: %#x", d64.Sum64())
	}
}

func TestSumAppends(t *testing.T) {
	d := New64()
	d.Write([]byte("a"))
	out := d.Sum([]byte{0xff})
	if len(out) != 9 || out[0] != 0xff {
		t.Fatalf("Sum should append to prefix, got % x", out)
	}
	if got, want := binary.BigEndian.Uint64(out[1:]), Hash64Bytes([]byte("a")); got != want {
		t.Errorf("Sum bytes = %#x, want %#x", got, want)
	}
}

func TestSizeBlockSize(t *testing.T) {
	if New64().Size() != 8 || New64().BlockSize() != 1 {
		t.Error("unexpected 64-bit Size/BlockSize")
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

func BenchmarkHash64(b *testing.B) {
	s := []byte("the quick brown fox jumps over the lazy dog")
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		Hash64Bytes(s)
	}
}
