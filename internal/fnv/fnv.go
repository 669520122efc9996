// Package fnv implements the 32-bit Fowler–Noll–Vo hash function FNV-1.
//
// The paper's index generator hashes terms with FNV1, and here FNV-1 does
// what the paper uses it for: it keys the extractor's per-file
// duplicate-elimination table (internal/extract) and routes files to shards
// (shard.ShardFor). (Persisted bytes are checksummed with CRC-32C, by
// index.Checksum.) The hash has one definition, Offset32 and Step32: the
// term scanner (tokenize.ScanBytes) folds them into its own byte loop, so
// a term's hash is ready when its last byte is classified, and
// Hash32Bytes applies them to a whole slice.
package fnv

// Offset32 is FNV-1's 32-bit offset basis: the hash of no bytes.
const Offset32 = 2166136261

const prime32 = 16777619

// Step32 extends the FNV-1 hash h by the byte c.
//
// FNV-1 multiplies before XORing each byte; it is the variant named by the
// paper ("FNV1 hash function [3]").
func Step32(h uint32, c byte) uint32 { return h*prime32 ^ uint32(c) }

// Hash32Bytes returns the FNV-1 32-bit hash of b.
func Hash32Bytes(b []byte) uint32 {
	h := uint32(Offset32)
	for _, c := range b {
		h = Step32(h, c)
	}
	return h
}
