package distribute

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"desksearch/internal/walk"
)

func mkFiles(sizes ...int64) []walk.FileRef {
	out := make([]walk.FileRef, len(sizes))
	for i, s := range sizes {
		out[i] = walk.FileRef{Path: fmt.Sprintf("f%03d", i), Size: s}
	}
	return out
}

func flatten(parts [][]walk.FileRef) []walk.FileRef {
	var out []walk.FileRef
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func TestStrategyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || BySize.String() != "by-size" ||
		Chunked.String() != "chunked" || Strategy(99).String() != "unknown" {
		t.Error("Strategy names wrong")
	}
}

func TestRoundRobinDealsInRotation(t *testing.T) {
	files := mkFiles(1, 2, 3, 4, 5, 6, 7)
	parts := Partition(files, 3, RoundRobin)
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	wantCounts := []int{3, 2, 2}
	for i, p := range parts {
		if len(p) != wantCounts[i] {
			t.Errorf("part %d has %d files, want %d", i, len(p), wantCounts[i])
		}
	}
	// File i goes to worker i%k: the paper's exact scheme.
	if parts[0][0].Path != "f000" || parts[1][0].Path != "f001" || parts[2][0].Path != "f002" {
		t.Error("rotation order wrong")
	}
	if parts[0][1].Path != "f003" {
		t.Error("second round wrong")
	}
}

func TestChunkedContiguous(t *testing.T) {
	files := mkFiles(1, 1, 1, 1, 1)
	parts := Partition(files, 2, Chunked)
	if len(parts[0]) != 3 || len(parts[1]) != 2 {
		t.Fatalf("chunk sizes %d/%d", len(parts[0]), len(parts[1]))
	}
	if parts[0][2].Path != "f002" || parts[1][0].Path != "f003" {
		t.Error("chunk boundaries wrong")
	}
}

func TestBySizeBalancesSkewedLoad(t *testing.T) {
	// One huge file plus many small: LPT must isolate the huge file.
	files := mkFiles(1000, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	// Same files over the same worker count: the lighter heaviest worker
	// is the better balance.
	maxLoad := func(parts [][]walk.FileRef) (max int64) {
		for _, p := range parts {
			if load := walk.TotalBytes(p); load > max {
				max = load
			}
		}
		return max
	}
	parts := Partition(files, 2, BySize)
	if by, rr := maxLoad(parts), maxLoad(Partition(files, 2, RoundRobin)); by >= rr {
		t.Errorf("BySize heaviest worker %d bytes, not lighter than round-robin's %d", by, rr)
	}
	// The huge file's worker should carry (about) only it.
	for _, p := range parts {
		for _, f := range p {
			if f.Size == 1000 && len(p) > 2 {
				t.Errorf("huge file shares a worker with %d files", len(p)-1)
			}
		}
	}
}

// Property: every strategy partitions the input exactly (no loss, no
// duplication) for any k.
func TestPartitionPreservesMultiset(t *testing.T) {
	if err := quick.Check(func(rawSizes []uint16, kRaw uint8) bool {
		sizes := make([]int64, len(rawSizes))
		for i, s := range rawSizes {
			sizes[i] = int64(s)
		}
		files := mkFiles(sizes...)
		k := int(kRaw%8) + 1
		for _, strat := range []Strategy{RoundRobin, BySize, Chunked} {
			parts := Partition(files, k, strat)
			if len(parts) != k {
				return false
			}
			if !reflect.DeepEqual(flatten(parts), append([]walk.FileRef{}, files...)) && len(files) > 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDegenerateInputs(t *testing.T) {
	if parts := Partition(nil, 4, RoundRobin); len(parts) != 4 {
		t.Error("nil files should still give k empty parts")
	}
	if parts := Partition(mkFiles(1, 2), 0, RoundRobin); len(parts) != 1 {
		t.Error("k<1 should clamp to 1")
	}
	parts := Partition(mkFiles(5), 3, BySize)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 1 {
		t.Error("single file distributed wrongly")
	}
}

func TestStealingPoolDrainsEverything(t *testing.T) {
	files := mkFiles(make([]int64, 500)...)
	p := NewStealingPool(files, 4)
	if p.Workers() != 4 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				f, ok := p.Next(w)
				if !ok {
					return
				}
				mu.Lock()
				if seen[f.Path] {
					t.Errorf("file %s delivered twice", f.Path)
				}
				seen[f.Path] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != len(files) {
		t.Errorf("drained %d files, want %d", len(seen), len(files))
	}
	if p.Remaining() != 0 {
		t.Errorf("Remaining = %d", p.Remaining())
	}
}

func TestStealingHappensWhenOneWorkerIsSlow(t *testing.T) {
	// Worker 0 never calls Next; the others must steal its share.
	files := mkFiles(make([]int64, 90)...)
	p := NewStealingPool(files, 3)
	count := 0
	for {
		_, ok := p.Next(1)
		if !ok {
			break
		}
		count++
		if count > len(files) {
			t.Fatal("more deliveries than files")
		}
	}
	if count != len(files) {
		t.Errorf("worker 1 alone drained %d, want all %d", count, len(files))
	}
}

func TestStealingSingleWorker(t *testing.T) {
	p := NewStealingPool(mkFiles(1, 2, 3), 1)
	n := 0
	for {
		if _, ok := p.Next(0); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("drained %d", n)
	}
}

// Property: stealing pool delivers each file exactly once under a random
// single-threaded access pattern.
func TestStealingExactlyOnce(t *testing.T) {
	if err := quick.Check(func(nFiles uint8, k uint8, seed int64) bool {
		n := int(nFiles%64) + 1
		workers := int(k%5) + 1
		files := mkFiles(make([]int64, n)...)
		p := NewStealingPool(files, workers)
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		for {
			w := rng.Intn(workers)
			f, ok := p.Next(w)
			if !ok {
				// Next(w)=false means globally empty.
				break
			}
			if seen[f.Path] {
				return false
			}
			seen[f.Path] = true
		}
		return len(seen) == n
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPartitionRoundRobin(b *testing.B) {
	files := mkFiles(make([]int64, 51000)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(files, 8, RoundRobin)
	}
}

func BenchmarkPartitionBySize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int64, 51000)
	for i := range sizes {
		sizes[i] = int64(rng.Intn(1 << 16))
	}
	files := mkFiles(sizes...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(files, 8, BySize)
	}
}
