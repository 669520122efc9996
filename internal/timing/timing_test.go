package timing

import (
	"sync"
	"testing"
	"time"
)

func TestEmptyWindow(t *testing.T) {
	w := NewWindow(8)
	if _, ok := w.Snapshot(); ok {
		t.Fatal("empty window reported a snapshot")
	}
}

func TestOrderStatistics(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Observe(time.Duration(i) * time.Millisecond)
	}
	s, ok := w.Snapshot()
	if !ok {
		t.Fatal("no snapshot")
	}
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if s.Min != 1*time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	// Nearest-rank on 100 sorted values 1..100ms: median index 49 -> 50ms,
	// p95 index 94 -> 95ms.
	if s.Median != 50*time.Millisecond {
		t.Fatalf("Median = %v, want 50ms", s.Median)
	}
	if s.P95 != 95*time.Millisecond {
		t.Fatalf("P95 = %v, want 95ms", s.P95)
	}
}

// TestSnapshotMemoized pins the re-sort policy: after the exact first
// Snapshot the order statistics stand for resortEvery observations, then
// catch up in one sort; Count never lags.
func TestSnapshotMemoized(t *testing.T) {
	w := NewWindow(0)
	w.Observe(time.Millisecond)
	if s, _ := w.Snapshot(); s.Max != time.Millisecond || s.Count != 1 {
		t.Fatalf("first snapshot = %+v, want exact", s)
	}
	for i := 1; i < resortEvery; i++ {
		w.Observe(time.Second)
	}
	if s, _ := w.Snapshot(); s.Max != time.Millisecond || s.Count != resortEvery {
		t.Fatalf("snapshot %d observations on = %+v, want the memoized statistics and a current Count", resortEvery-1, s)
	}
	w.Observe(time.Second)
	if s, _ := w.Snapshot(); s.Max != time.Second || s.Min != time.Millisecond {
		t.Fatalf("snapshot %d observations on = %+v, want a fresh sort", resortEvery, s)
	}
}

func TestRingDisplacement(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Observe(time.Duration(i) * time.Second)
	}
	s, ok := w.Snapshot()
	if !ok {
		t.Fatal("no snapshot")
	}
	if s.Count != 10 {
		t.Fatalf("Count = %d, want lifetime 10", s.Count)
	}
	// Window holds the last 4 observations: 7..10s.
	if s.Min != 7*time.Second || s.Max != 10*time.Second {
		t.Fatalf("window holds %v..%v, want 7s..10s", s.Min, s.Max)
	}
}

// TestSnapshotDoesNotAllocate pins the scratch-buffer contract: a steady
// state of Observe+Snapshot runs allocation-free, because Snapshot sorts
// into the buffer allocated once by NewWindow.
func TestSnapshotDoesNotAllocate(t *testing.T) {
	w := NewWindow(DefaultWindowSize)
	for i := 0; i < DefaultWindowSize*2; i++ {
		w.Observe(time.Duration(i) * time.Microsecond)
	}
	allocs := testing.AllocsPerRun(100, func() {
		w.Observe(time.Millisecond)
		if _, ok := w.Snapshot(); !ok {
			t.Fatal("no snapshot")
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe+Snapshot allocates %v objects per call, want 0", allocs)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	w := NewWindow(DefaultWindowSize)
	for i := 0; i < DefaultWindowSize; i++ {
		w.Observe(time.Duration(i%37) * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.Snapshot(); !ok {
			b.Fatal("no snapshot")
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	w := NewWindow(0) // default size
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Observe(time.Millisecond)
				w.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := w.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}
