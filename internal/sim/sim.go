// Package sim is a deterministic discrete-event simulation engine.
//
// It was the engine under the simulated model of the paper's 4-, 8- and
// 32-core hosts. That model is gone and nothing in the module imports this
// package any more; ROADMAP item 9(a) tracks its removal.
//
// The engine is continuation-passing: model code never blocks. A simulated
// thread is a chain of callbacks; waiting is expressed by passing the rest
// of the computation to After, Resource.Acquire, or Semaphore.P. All
// continuations are dispatched through the event queue in (time, sequence)
// order, which makes runs deterministic and keeps callback stacks shallow.
package sim

import "container/heap"

// Engine is a discrete-event scheduler. The zero value is not ready; use
// NewEngine.
type Engine struct {
	now    float64
	events eventHeap
	seq    uint64
	steps  uint64
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events dispatched so far.
func (e *Engine) Steps() uint64 { return e.steps }

// After schedules fn to run d seconds from now. Negative d is treated as 0.
// Events scheduled for the same instant run in scheduling order.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	heap.Push(&e.events, &event{at: e.now + d, seq: e.seq, fn: fn})
}

// Run dispatches events until the queue is empty and returns the final
// virtual time.
func (e *Engine) Run() float64 {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		e.steps++
		ev.fn()
	}
	return e.now
}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Resource is an m-server FIFO queue: up to Capacity holders at once,
// waiters served in arrival order. It models cores (capacity = core
// count), disks (capacity = command queue depth), and locks (capacity 1).
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []func()
	// busy accumulates holder-seconds for utilization reporting.
	busy       float64
	lastChange float64
}

// NewResource returns a resource with the given capacity (min 1).
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{eng: eng, capacity: capacity}
}

// Acquire grants one unit to cont, immediately if a unit is free, otherwise
// when one is released. cont runs via the event queue.
func (r *Resource) Acquire(cont func()) {
	if r.inUse < r.capacity {
		r.grant(cont)
		return
	}
	r.waiters = append(r.waiters, cont)
}

func (r *Resource) grant(cont func()) {
	r.accumulate()
	r.inUse++
	r.eng.After(0, cont)
}

// Release returns one unit; the longest-waiting Acquire (if any) is granted.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if len(r.waiters) > 0 {
		cont := r.waiters[0]
		r.waiters = r.waiters[1:]
		// Hand the unit straight to the waiter: inUse is unchanged, but
		// busy-time accounting continues.
		r.eng.After(0, cont)
		return
	}
	r.accumulate()
	r.inUse--
}

// Use acquires a unit, holds it for d seconds, releases it, then runs cont.
func (r *Resource) Use(d float64, cont func()) {
	r.Acquire(func() {
		r.eng.After(d, func() {
			r.Release()
			cont()
		})
	})
}

// InUse returns the number of currently granted units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen returns the number of blocked Acquires.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// BusySeconds returns accumulated holder-seconds up to the current time.
func (r *Resource) BusySeconds() float64 {
	r.accumulate()
	return r.busy
}

func (r *Resource) accumulate() {
	r.busy += float64(r.inUse) * (r.eng.now - r.lastChange)
	r.lastChange = r.eng.now
}

// Semaphore is a counting semaphore that may start at zero; unlike
// Resource, permits are created by V, so it models producer/consumer
// hand-off (the bounded buffer between extractors and updaters).
type Semaphore struct {
	eng     *Engine
	count   int
	waiters []func()
}

// NewSemaphore returns a semaphore with the given initial permit count.
func NewSemaphore(eng *Engine, initial int) *Semaphore {
	if initial < 0 {
		initial = 0
	}
	return &Semaphore{eng: eng, count: initial}
}

// P takes a permit, running cont immediately if one is available or when
// the next V supplies one. Waiters are served FIFO.
func (s *Semaphore) P(cont func()) {
	if s.count > 0 {
		s.count--
		s.eng.After(0, cont)
		return
	}
	s.waiters = append(s.waiters, cont)
}

// V supplies one permit.
func (s *Semaphore) V() {
	if len(s.waiters) > 0 {
		cont := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.eng.After(0, cont)
		return
	}
	s.count++
}

// Count returns the available permits.
func (s *Semaphore) Count() int { return s.count }

// Waiting returns the number of blocked P calls.
func (s *Semaphore) Waiting() int { return len(s.waiters) }

// WaitGroup counts down pending simulated activities and runs a completion
// callback at zero — the barrier before "Join Forces".
type WaitGroup struct {
	eng     *Engine
	pending int
	done    []func()
}

// NewWaitGroup returns a WaitGroup expecting pending completions.
func NewWaitGroup(eng *Engine, pending int) *WaitGroup {
	return &WaitGroup{eng: eng, pending: pending}
}

// Done signals one completion.
func (w *WaitGroup) Done() {
	if w.pending <= 0 {
		panic("sim: WaitGroup.Done below zero")
	}
	w.pending--
	if w.pending == 0 {
		for _, fn := range w.done {
			w.eng.After(0, fn)
		}
		w.done = nil
	}
}

// Wait schedules fn once the count reaches zero (immediately if already
// zero).
func (w *WaitGroup) Wait(fn func()) {
	if w.pending == 0 {
		w.eng.After(0, fn)
		return
	}
	w.done = append(w.done, fn)
}
