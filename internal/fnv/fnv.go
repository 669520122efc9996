// Package fnv implements the Fowler–Noll–Vo hash function FNV-1 in 32-bit
// and 64-bit widths.
//
// The paper's index generator hashes terms with FNV1. Here FNV-1 keys the
// extractor's per-file duplicate-elimination table (internal/extract),
// routes files to shards (shard.ShardFor), and checksums every persisted
// frame (the manifest), segment and posting block. Unlike the standard
// library's hash/fnv, it exposes allocation-free one-shot byte-slice forms,
// which is what the hot extraction path needs.
package fnv

import "hash"

const (
	offset32 = 2166136261
	prime32  = 16777619
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash32Bytes returns the FNV-1 32-bit hash of b.
//
// FNV-1 multiplies before XORing each byte; it is the variant named by the
// paper ("FNV1 hash function [3]").
func Hash32Bytes(b []byte) uint32 {
	h := uint32(offset32)
	for _, c := range b {
		h *= prime32
		h ^= uint32(c)
	}
	return h
}

// Hash64Bytes returns the FNV-1 64-bit hash of b.
func Hash64Bytes(b []byte) uint64 {
	h := uint64(offset64)
	for _, c := range b {
		h *= prime64
		h ^= uint64(c)
	}
	return h
}

// digest64 is a streaming FNV-1 64-bit hash implementing hash.Hash64.
type digest64 struct {
	sum uint64
}

// New64 returns a streaming FNV-1 64-bit hash.Hash64.
func New64() hash.Hash64 { return &digest64{sum: offset64} }

func (d *digest64) Write(p []byte) (int, error) {
	h := d.sum
	for _, c := range p {
		h *= prime64
		h ^= uint64(c)
	}
	d.sum = h
	return len(p), nil
}

func (d *digest64) Sum(b []byte) []byte {
	s := d.sum
	return append(b,
		byte(s>>56), byte(s>>48), byte(s>>40), byte(s>>32),
		byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
}

func (d *digest64) Reset()         { d.sum = offset64 }
func (d *digest64) Size() int      { return 8 }
func (d *digest64) BlockSize() int { return 1 }
func (d *digest64) Sum64() uint64  { return d.sum }
