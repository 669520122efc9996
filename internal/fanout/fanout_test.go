package fanout

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// stop ends p's workers once the queue is drained.
func (p *pool) stop() { close(p.queue) }

// TestFanOut: every index in [0, n) runs exactly once, and when several
// calls fail the caller gets the lowest index's error, even when a higher
// one fails first. The failing calls run on a pool of two workers beside
// the caller: the lowest holds one until the highest, taken by another,
// has failed.
func TestFanOut(t *testing.T) {
	p := newPool(2)
	defer p.stop()
	for _, n := range []int{0, 1, 4, 64} {
		runs := make([]atomic.Int32, n)
		if err := Run(n, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, got)
			}
		}
		if n < 2 {
			continue
		}
		// Every odd index fails; the lowest of them waits until the
		// highest has failed, so the errors arrive out of order.
		lowest, highest := 1, n-1-n%2
		last := make(chan struct{})
		err := p.run(n, func(i int) error {
			if i%2 == 0 {
				return nil
			}
			switch i {
			case lowest:
				if lowest != highest {
					<-last
				}
			case highest:
				defer close(last)
			}
			return fmt.Errorf("call %d failed", i)
		})
		if want := fmt.Sprintf("call %d failed", lowest); err == nil || err.Error() != want {
			t.Errorf("n=%d: got %v, want %q", n, err, want)
		}
	}
}

// TestFanOutBound: a job runs on its caller and the pool's workers and on
// nothing else. The first tasks of a pool of two wait until three are in
// flight at once, which only the caller and both workers together reach;
// no more than three are ever in flight, and every task runs once.
func TestFanOutBound(t *testing.T) {
	const workers, n = 2, 16
	const bound = workers + 1 // the caller claims indices too
	p := newPool(workers)
	defer p.stop()
	var inFlight, peak atomic.Int32
	runs := make([]atomic.Int32, n)
	full := make(chan struct{})
	fill := sync.OnceFunc(func() { close(full) })
	err := p.run(n, func(i int) error {
		now := inFlight.Add(1)
		defer inFlight.Add(-1)
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		if now == bound && i < bound {
			fill()
		}
		if i < bound {
			select {
			case <-full:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("task %d: the first %d tasks never ran at once", i, bound)
			}
		}
		runs[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != bound {
		t.Errorf("peak in flight %d, want %d", got, bound)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
	}
}

// TestNestedRunCompletes: a fan-out started inside a task of a pool whose
// only worker is busy with that task still completes, because its caller
// claims indices itself; were the caller to wait for a worker, the one
// worker would wait on itself forever. Every outer task, on the caller
// and on the worker alike, starts its own inner fan-out.
func TestNestedRunCompletes(t *testing.T) {
	p := newPool(1)
	defer p.stop()
	const outer, inner = 4, 8
	var runs atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- p.run(outer, func(int) error {
			return p.run(inner, func(int) error {
				runs.Add(1)
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a fan-out nested in a one-worker pool's task did not complete")
	}
	if got := runs.Load(); got != outer*inner {
		t.Errorf("%d inner tasks ran, want %d", got, outer*inner)
	}
}

// TestConcurrentRuns: many callers share the process's pool at once, each
// job running every one of its own indices exactly once.
func TestConcurrentRuns(t *testing.T) {
	const callers, n = 8, 32
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				runs := make([]atomic.Int32, n)
				if err := Run(n, func(i int) error {
					runs[i].Add(1)
					return nil
				}); err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("caller %d: index %d ran %d times", c, i, got)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPollOnlyWhileQuiet: a worker that finishes a job polls the queue
// while Runs come one at a time, parks at once for quietFor after two
// Runs overlap, and polls again once that window has passed. The pool
// has no workers: the test takes the offers itself, and it reads the
// decision at times it chooses, so nothing waits on a clock.
func TestPollOnlyWhileQuiet(t *testing.T) {
	p := &pool{queue: make(chan *job, 1)}
	nop := func(int) error { return nil }

	// Serial Runs only: a worker finishing at any time polls.
	for range 3 {
		if err := p.run(2, nop); err != nil {
			t.Fatal(err)
		}
		if j, ok := p.take(); !ok || j.n != 2 {
			t.Fatalf("take = %v, %v; want the offered job", j, ok)
		}
	}
	if !p.quiet(0) {
		t.Error("serial Runs left the pool busy")
	}
	if got := p.polls.Load(); got != 3 {
		t.Errorf("%d polls after three serial Runs, want 3", got)
	}

	// Two overlapping Runs: the first's tasks wait until the second's
	// first task has run, and the second starts once the first has
	// offered its job.
	second := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.run(2, func(int) error {
			<-second
			return nil
		})
	}()
	for len(p.queue) == 0 {
		runtime.Gosched()
	}
	if err := p.run(2, func(i int) error {
		if i == 0 {
			close(second)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	busyUntil := time.Duration(p.quietFrom.Load())
	if overlap := busyUntil - quietFor; overlap <= 0 || p.quiet(overlap) || p.quiet(busyUntil-1) {
		t.Errorf("a worker finishing within quietFor of the overlap at %v polls", overlap)
	}
	if !p.quiet(busyUntil) {
		t.Error("a worker finishing quietFor after an overlap parks")
	}

	// take asks quiet: in a busy pool it parks, taking the queued job
	// without a poll.
	p.quietFrom.Store(math.MaxInt64)
	polls := p.polls.Load()
	if _, ok := p.take(); !ok {
		t.Fatal("queue closed")
	}
	if got := p.polls.Load(); got != polls {
		t.Error("take polled in a busy pool")
	}
}

// TestCounts: a Run counts the offers it queued, and a worker the indices
// it ran, or a wasted wake when the job's caller had claimed them all.
func TestCounts(t *testing.T) {
	p := &pool{queue: make(chan *job, 1)}
	nop := func(int) error { return nil }
	if err := p.run(3, nop); err != nil { // one offer; the caller runs all three
		t.Fatal(err)
	}
	p.work(<-p.queue)
	j := &job{n: 2, do: nop}
	j.wg.Add(2)
	p.work(j)
	if got, want := p.counts(), (Counts{Offers: 1, WastedWakes: 1, WorkerIndices: 2}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}

// TestRunReleasesItsClosure: once Run returns, an offer no worker has
// taken yet keeps nothing the job's closure captured alive.
func TestRunReleasesItsClosure(t *testing.T) {
	p := &pool{queue: make(chan *job, 1)} // no worker: the offer stays queued
	captured := new([1 << 10]byte)
	w := weak.Make(captured)
	if err := p.run(2, func(i int) error {
		captured[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(p.queue) != 1 {
		t.Fatal("the job's offer is not queued")
	}
	runtime.GC()
	if w.Value() != nil {
		t.Error("a queued offer keeps its Run's closure alive after Run returned")
	}
	runtime.KeepAlive(p) // the queue, and the offer in it, outlive the collection
}
