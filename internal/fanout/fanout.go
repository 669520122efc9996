// Package fanout runs the indices of a job in parallel on one fixed set of
// long-lived workers: the paper's Implementation 3 searches its partitions
// "in parallel" with a fixed set of threads, and so does every per-partition
// step here — a query's prefix expansion, evaluation and snippet page, a
// commit's per-owner work, and a directory's per-segment saves, loads and
// opens.
//
// The pool holds GOMAXPROCS goroutines, started once per process on the
// first Run that has more than one index; they live as long as the process.
// A Run never waits for a worker: its caller claims indices itself from the
// job's own counter, and a worker that takes the job off the queue claims
// the rest beside it. So every job makes progress on its caller, a Run
// started inside another's task cannot deadlock, and no goroutine is
// created per call. A worker that has finished a job polls the queue for a
// moment before it parks (take), so a query's next fan-out finds it awake.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Run calls do(i) for every i in [0, n) and returns once every call has:
// with the error of the lowest i whose call failed, or nil, however the
// calls finished. The calls run on the caller and on at most GOMAXPROCS
// pool workers; with n == 1 the one call runs inline.
//
// do must not panic: a panic on a pool worker ends the process, as it
// would on any goroutine. A caller that reports a panic as an error
// recovers it inside do, as the search engine does for a partition.
func Run(n int, do func(i int) error) error {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return do(0)
	}
	return shared().run(n, do)
}

// shared returns the process's pool, starting it on first use.
var shared = sync.OnceValue(func() *pool { return newPool(runtime.GOMAXPROCS(0)) })

// pool is a set of workers taking jobs off one queue.
type pool struct {
	queue chan *job
}

// newPool starts workers goroutines on a queue of as many slots: a job is
// offered once per worker it could use, so a full queue means every worker
// already has a job waiting and a caller does the rest of its own.
func newPool(workers int) *pool {
	p := &pool{queue: make(chan *job, workers)}
	for range workers {
		go func() {
			for j, ok := p.take(); ok; j, ok = p.take() {
				j.run()
			}
		}()
	}
	return p
}

// A worker that has finished a job keeps its processor for up to spinFor,
// polling the queue, unless a yield shows another goroutine wants the
// processor (the yield lasted longer than yielded). Waking a parked
// worker's thread takes longer than a partition of a query takes to
// evaluate, so a worker that parked between a query's fan-outs, or
// between one query and the next, would join each job only as it ends;
// a worker still polling takes the next job at once. The yield does not
// see goroutines the network poller has yet to ready, so a server whose
// clients keep every processor busy pays for the poll.
const (
	spinFor = 50 * time.Microsecond
	yielded = time.Microsecond
)

// take returns the next job, or false once p's queue is closed: from the
// queue while the worker polls it, then by parking on it.
func (p *pool) take() (*job, bool) {
	start := time.Now()
	for last := start; last.Sub(start) < spinFor; {
		select {
		case j, ok := <-p.queue:
			return j, ok
		default:
		}
		runtime.Gosched()
		now := time.Now()
		if now.Sub(last) > yielded {
			break
		}
		last = now
	}
	j, ok := <-p.queue
	return j, ok
}

// run is Run on p.
func (p *pool) run(n int, do func(i int) error) error {
	j := &job{n: int64(n), do: do}
	j.wg.Add(n)
offer:
	for range min(n-1, cap(p.queue)) {
		select {
		case p.queue <- j:
		default:
			break offer
		}
	}
	j.run()
	j.wg.Wait()
	return j.err
}

// job is one Run: the indices not yet claimed, and the lowest failure.
type job struct {
	n    int64
	next atomic.Int64
	do   func(i int) error
	wg   sync.WaitGroup // one count per index, done when its call returns

	mu     sync.Mutex
	err    error
	errIdx int
}

// run claims indices until none is left. A worker that takes a job whose
// indices are all claimed returns at once.
func (j *job) run() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		if err := j.do(int(i)); err != nil {
			j.fail(int(i), err)
		}
		j.wg.Done()
	}
}

// fail keeps err when i is the lowest failing index so far.
func (j *job) fail(i int, err error) {
	j.mu.Lock()
	if j.err == nil || i < j.errIdx {
		j.err, j.errIdx = err, i
	}
	j.mu.Unlock()
}
