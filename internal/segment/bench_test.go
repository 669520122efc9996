package segment

import (
	"math/rand"
	"testing"
)

// benchTerms is the vocabulary of the benchmarks' segment, about one
// shard's worth of the benchmark corpus's at 1/64 scale.
const benchTerms = 15000

// sinkOrd keeps the benchmarked lookups from being optimized away.
var sinkOrd int

// BenchmarkSegmentOpen opens a counted segment of benchTerms terms from
// memory: the header and dictionary checksums, and the walk that checks
// every entry and builds the restart index.
func BenchmarkSegmentOpen(b *testing.B) {
	img := segmentOf(b, randomVocab(benchTerms, 7))
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := OpenBytes("bench", img, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentFind looks up that segment's terms in a shuffled order,
// every one present.
func BenchmarkSegmentFind(b *testing.B) {
	vocab := randomVocab(benchTerms, 7)
	r, err := OpenBytes("bench", segmentOf(b, vocab), nil)
	if err != nil {
		b.Fatal(err)
	}
	rand.New(rand.NewSource(8)).Shuffle(len(vocab), func(i, j int) { vocab[i], vocab[j] = vocab[j], vocab[i] })
	i := 0
	for b.Loop() {
		sinkOrd = r.find(vocab[i])
		if i++; i == len(vocab) {
			i = 0
		}
	}
}
