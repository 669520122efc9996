package vfs

import (
	"io"
	"sync"
	"testing"
	"time"
)

func newPopulatedMem(t *testing.T) *MemFS {
	t.Helper()
	fs := NewMemFS()
	files := map[string]string{
		"a.txt":      "0123456789",       // 10 bytes
		"dir/b.txt":  "0123456789012345", // 16 bytes
		"dir/c.html": "<b>x</b>",
	}
	for name, content := range files {
		if err := fs.WriteFile(name, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestDiskModelTransferTime(t *testing.T) {
	d := DiskModel{Seek: time.Millisecond, BytesPerSecond: 1000}
	if got := d.TransferTime(500); got != 500*time.Millisecond {
		t.Errorf("TransferTime(500) = %v", got)
	}
	if got := (DiskModel{}).TransferTime(1 << 30); got != 0 {
		t.Errorf("zero-bandwidth TransferTime = %v", got)
	}
}

func TestDelayFSChargesModeledTime(t *testing.T) {
	var slept time.Duration
	var mu sync.Mutex
	d := NewDelayFS(newPopulatedMem(t), DiskModel{Seek: 5 * time.Millisecond, BytesPerSecond: 1000})
	d.sleep = func(dur time.Duration) {
		mu.Lock()
		slept += dur
		mu.Unlock()
	}

	// ReadFile of 10 bytes at 1000 B/s: 10ms transfer + 5ms seek.
	if _, err := d.ReadFile("a.txt"); err != nil {
		t.Fatal(err)
	}
	if slept != 15*time.Millisecond {
		t.Errorf("ReadFile slept %v, want 15ms", slept)
	}

	slept = 0
	rc, err := d.Open("a.txt") // seek only
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(rc) // transfer charged per Read call
	rc.Close()
	if slept != 15*time.Millisecond {
		t.Errorf("Open+ReadAll slept %v, want 15ms", slept)
	}

	slept = 0
	d.ReadDir(".")
	if slept != 5*time.Millisecond {
		t.Errorf("ReadDir slept %v, want 5ms (one seek)", slept)
	}

	slept = 0
	d.Stat("a.txt")
	if slept != 0 {
		t.Errorf("Stat slept %v, want 0", slept)
	}
}

func TestLimitedSerializesOperations(t *testing.T) {
	base := newPopulatedMem(t)
	lim := NewLimited(base, 1)

	var inFlight, peak int32
	var mu sync.Mutex
	probe := probeFS{FS: base, enter: func() {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
	}, exit: func() {
		mu.Lock()
		inFlight--
		mu.Unlock()
	}}
	lim = NewLimited(probe, 1)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := lim.ReadFile("a.txt"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak > 1 {
		t.Errorf("depth-1 limit allowed %d concurrent reads", peak)
	}
}

func TestLimitedAllowsConfiguredDepth(t *testing.T) {
	lim := NewLimited(newPopulatedMem(t), 4)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lim.ReadFile("a.txt"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Depth clamps to minimum 1.
	if l := NewLimited(newPopulatedMem(t), 0); cap(l.sem) != 1 {
		t.Errorf("depth clamp = %d", cap(l.sem))
	}
}

func TestLimitedStreaming(t *testing.T) {
	lim := NewLimited(newPopulatedMem(t), 1)
	rc, err := lim.Open("dir/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || len(data) != 16 {
		t.Errorf("streamed %d bytes, %v", len(data), err)
	}
	if _, err := lim.Open("missing"); err == nil {
		t.Error("Open(missing) succeeded")
	}
	if _, err := lim.ReadDir("dir"); err != nil {
		t.Error(err)
	}
	if _, err := lim.Stat("a.txt"); err != nil {
		t.Error(err)
	}
}

type probeFS struct {
	FS
	enter, exit func()
}

func (p probeFS) ReadFile(name string) ([]byte, error) {
	p.enter()
	defer p.exit()
	return p.FS.ReadFile(name)
}

func TestDelayFSPropagatesErrors(t *testing.T) {
	d := NewDelayFS(newPopulatedMem(t), DiskModel{})
	d.sleep = func(time.Duration) {}
	if _, err := d.ReadFile("missing"); err == nil {
		t.Error("DelayFS swallowed error")
	}
	if _, err := d.Open("missing"); err == nil {
		t.Error("DelayFS Open swallowed error")
	}
}
