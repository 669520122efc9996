package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed op of a timed pass.
type sample struct {
	class class
	dur   time.Duration
}

// passResult is one closed-loop pass over a slice of the op stream.
type passResult struct {
	samples []sample
	failed  int
	refused int // of failed: rejected by rule, not by time
	// firstErr is the error of the first failed op, for the report.
	firstErr error
	wall     time.Duration
}

// runPass issues ops to t from the given number of closed-loop clients:
// each client sends its next op only when the previous one has been
// answered, as a desktop user or a broker's caller does. Clients share
// one cursor over ops, so every op is issued exactly once. firstID
// numbers the ops for the recorder.
func runPass(ctx context.Context, t target, ops []op, clients int, rec *recorder, firstID int) passResult {
	res := passResult{samples: make([]sample, len(ops))}
	var cursor, failed, refused atomic.Int64
	var firstErr atomic.Pointer[error]
	client := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(ops) {
				return
			}
			root := rec.begin("op", -1, firstID+i)
			t0 := time.Now()
			err := t.do(ctx, ops[i], rec, root, firstID+i)
			res.samples[i] = sample{class: ops[i].Class, dur: time.Since(t0)}
			rec.end(root)
			if err != nil {
				failed.Add(1)
				if isRefusal(err) {
					refused.Add(1)
				}
				firstErr.CompareAndSwap(nil, &err)
			}
		}
	}
	start := time.Now()
	if clients <= 1 {
		client()
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client()
			}()
		}
		wg.Wait()
	}
	res.wall = time.Since(start)
	res.failed, res.refused = int(failed.Load()), int(refused.Load())
	if e := firstErr.Load(); e != nil {
		res.firstErr = *e
	}
	return res
}

// latencies holds the samples of a pass, ascending, overall and by class.
type latencies struct {
	all     []time.Duration
	byClass map[class][]time.Duration
}

func collect(p passResult) latencies {
	l := latencies{byClass: make(map[class][]time.Duration)}
	for _, s := range p.samples {
		l.all = append(l.all, s.dur)
		l.byClass[s.class] = append(l.byClass[s.class], s.dur)
	}
	slices.Sort(l.all)
	for _, ds := range l.byClass {
		slices.Sort(ds)
	}
	return l
}

// statusError is a non-200 answer of an HTTP target.
type statusError struct {
	op     op
	status int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %q: status %d", e.op.Class, e.op.Query, e.status)
}

// isRefusal reports whether err is the system rejecting the op by rule:
// anything a catalog returns in process (a parse error, a typed
// QueryError), or an HTTP 4xx. What is left is a transport failure or a
// 5xx — time running out somewhere — which a busy machine can cause.
func isRefusal(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 400 && se.status < 500
	}
	var ne net.Error
	return !errors.As(err, &ne) && !errors.Is(err, context.DeadlineExceeded)
}
