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
// created per call. While Runs come one at a time, as a desktop user's
// queries do, a worker that has finished a job polls the queue for a
// moment before it parks (take), so a query's next fan-out finds it awake.
// Once two Runs overlap, as a loaded server's do, the processors already
// have other work, and a finishing worker parks at once until the Runs
// have stopped overlapping for quietFor.
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

// Counts are running totals of the process's pool since it started.
type Counts struct {
	Offers        uint64 // job offers put on the queue, one per worker a job could use
	WastedWakes   uint64 // offers a worker took after every index was already claimed
	WorkerIndices uint64 // indices run on workers rather than on the Run's caller
	Polls         uint64 // times a worker polled the queue rather than parking at once
}

// Totals returns the process's pool counts, starting the pool if no Run
// has yet.
func Totals() Counts { return shared().counts() }

// counts reads p's totals.
func (p *pool) counts() Counts {
	return Counts{
		Offers:        p.offers.Load(),
		WastedWakes:   p.wasted.Load(),
		WorkerIndices: p.workerIndices.Load(),
		Polls:         p.polls.Load(),
	}
}

// shared returns the process's pool, starting it on first use.
var shared = sync.OnceValue(func() *pool { return newPool(runtime.GOMAXPROCS(0)) })

// pool is a set of workers taking jobs off one queue.
type pool struct {
	queue chan *job

	// running counts the Runs in progress; quietFrom is when the last
	// overlap's quiet window ends, as time since epoch (0: none yet).
	running   atomic.Int64
	quietFrom atomic.Int64

	offers, wasted, workerIndices, polls atomic.Uint64
}

// newPool starts workers goroutines on a queue of as many slots: a job is
// offered once per worker it could use, so a full queue means every worker
// already has a job waiting and a caller does the rest of its own.
func newPool(workers int) *pool {
	p := &pool{queue: make(chan *job, workers)}
	for range workers {
		go func() {
			for j, ok := p.take(); ok; j, ok = p.take() {
				p.work(j)
			}
		}()
	}
	return p
}

// work runs a job a worker took off the queue.
func (p *pool) work(j *job) {
	if ran := j.run(); ran > 0 {
		p.workerIndices.Add(uint64(ran))
	} else {
		p.wasted.Add(1)
	}
}

// A worker that has finished a job keeps its processor for up to spinFor,
// polling the queue, unless a yield shows another goroutine wants the
// processor (the yield lasted longer than yielded). Waking a parked
// worker's thread takes longer than a partition of a query takes to
// evaluate, so a worker that parked between a query's fan-outs, or
// between one query and the next, would join each job only as it ends;
// a worker still polling takes the next job at once. The yield does not
// see goroutines the network poller has yet to ready, so the poll runs
// only in a quiet pool: one where no two Runs have overlapped for
// quietFor. Concurrent queries fill the processors without the pool's
// help, and a poll then only delays the goroutines the network poller
// readies. On a 2-CPU VM serving two HTTP clients, successive overlaps
// came a median 0.1 ms apart, 99% within 0.7 ms and 99.9% within 8 ms:
// quietFor is long enough that such a server all but stops polling, and
// short enough that a desktop user's next query, after a background
// update that overlapped the last one, polls again.
const (
	spinFor  = 50 * time.Microsecond
	yielded  = time.Microsecond
	quietFor = 10 * time.Millisecond
)

// epoch is the origin of the times the pool stores.
var epoch = time.Now()

// quiet reports whether a worker finishing a job at now, as time since
// epoch, polls: whether no two Runs have overlapped within quietFor.
func (p *pool) quiet(now time.Duration) bool {
	return now >= time.Duration(p.quietFrom.Load())
}

// take returns the next job, or false once p's queue is closed: from the
// queue while the worker polls it, then by parking on it.
func (p *pool) take() (*job, bool) {
	if start := time.Now(); p.quiet(start.Sub(epoch)) {
		p.polls.Add(1)
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
	}
	j, ok := <-p.queue
	return j, ok
}

// run is Run on p. A Run that starts while another is in progress marks
// the pool busy for quietFor. Once every index has run, the job drops do:
// offers no worker has taken yet keep the job, not what do reaches.
func (p *pool) run(n int, do func(i int) error) error {
	if p.running.Add(1) > 1 {
		p.quietFrom.Store(int64(time.Since(epoch) + quietFor))
	}
	defer p.running.Add(-1)
	j := &job{n: int64(n), do: do}
	j.wg.Add(n)
	offered := 0
offer:
	for range min(n-1, cap(p.queue)) {
		select {
		case p.queue <- j:
			offered++
		default:
			break offer
		}
	}
	p.offers.Add(uint64(offered))
	j.run()
	j.wg.Wait()
	j.do = nil
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

// run claims indices until none is left and returns how many it ran. A
// worker that takes a job whose indices are all claimed returns at once.
func (j *job) run() int {
	ran := 0
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		if err := j.do(int(i)); err != nil {
			j.fail(int(i), err)
		}
		j.wg.Done()
		ran++
	}
	return ran
}

// fail keeps err when i is the lowest failing index so far.
func (j *job) fail(i int, err error) {
	j.mu.Lock()
	if j.err == nil || i < j.errIdx {
		j.err, j.errIdx = err, i
	}
	j.mu.Unlock()
}
