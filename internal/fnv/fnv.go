// Package fnv implements the 32-bit Fowler–Noll–Vo hash function FNV-1.
//
// The paper's index generator hashes terms with FNV1, and here FNV-1 does
// what the paper uses it for: it keys the extractor's per-file
// duplicate-elimination table (internal/extract) and routes files to shards
// (shard.ShardFor). (Persisted bytes are checksummed with CRC-32C, by
// index.Checksum.) Unlike the standard library's hash/fnv, it has an
// allocation-free one-shot byte-slice form, which is what the hot
// extraction path needs.
package fnv

const (
	offset32 = 2166136261
	prime32  = 16777619
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
