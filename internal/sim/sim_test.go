package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAfterOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(3, func() { order = append(order, 3) })
	e.After(1, func() { order = append(order, 1) })
	e.After(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		e.After(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-1, func() { ran = true })
	if end := e.Run(); end != 0 || !ran {
		t.Errorf("end=%v ran=%v", end, ran)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var at []float64
	e.After(1, func() {
		at = append(at, e.Now())
		e.After(2, func() {
			at = append(at, e.Now())
		})
	})
	e.Run()
	if len(at) != 2 || at[0] != 1 || at[1] != 3 {
		t.Errorf("at = %v", at)
	}
	if e.Steps() != 2 {
		t.Errorf("Steps = %d", e.Steps())
	}
}

func TestClockMonotonic(t *testing.T) {
	if err := quick.Check(func(delays []float64, seed int64) bool {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		last := -1.0
		ok := true
		var schedule func(depth int)
		schedule = func(depth int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth < 3 && rng.Intn(2) == 0 {
				e.After(rng.Float64(), func() { schedule(depth + 1) })
			}
		}
		for _, d := range delays {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			e.After(math.Abs(math.Mod(d, 100)), func() { schedule(0) })
		}
		e.Run()
		return ok
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestResourceMServerMakespan checks the m-server law: N identical jobs of
// duration d on capacity c finish at ceil(N/c)*d.
func TestResourceMServerMakespan(t *testing.T) {
	for _, tc := range []struct {
		n, c int
		d    float64
		want float64
	}{
		{10, 1, 2, 20},
		{10, 2, 2, 10},
		{10, 3, 2, 8}, // ceil(10/3)=4 waves × 2
		{1, 8, 5, 5},
		{7, 7, 1, 1},
	} {
		e := NewEngine()
		r := NewResource(e, tc.c)
		for i := 0; i < tc.n; i++ {
			r.Use(tc.d, func() {})
		}
		if got := e.Run(); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("n=%d c=%d d=%v: makespan %v, want %v", tc.n, tc.c, tc.d, got, tc.want)
		}
	}
}

func TestResourceCapacityNeverExceeded(t *testing.T) {
	if err := quick.Check(func(jobs []uint8, capRaw uint8, seed int64) bool {
		capacity := int(capRaw%6) + 1
		e := NewEngine()
		r := NewResource(e, capacity)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		for range jobs {
			delay := rng.Float64() * 3
			dur := rng.Float64() * 2
			e.After(delay, func() {
				r.Use(dur, func() {
					if r.InUse() > capacity {
						ok = false
					}
				})
			})
		}
		e.Run()
		return ok && r.InUse() == 0
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	r.Use(1, func() {}) // occupies until t=1
	for i := 1; i <= 5; i++ {
		r.Acquire(func() {
			order = append(order, i)
			e.After(0.5, r.Release)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("waiters served out of order: %v", order)
		}
	}
}

func TestResourceBusyAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	r.Use(3, func() {})
	r.Use(5, func() {})
	e.Run()
	if got := r.BusySeconds(); math.Abs(got-8) > 1e-9 {
		t.Errorf("BusySeconds = %v, want 8", got)
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceMinimumCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 0)
	if r.Capacity() != 1 {
		t.Errorf("capacity clamped to %d", r.Capacity())
	}
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	e := NewEngine()
	slots := NewSemaphore(e, 2) // buffer capacity 2
	items := NewSemaphore(e, 0)
	const n = 20
	produced, consumed := 0, 0

	var produce func()
	produce = func() {
		if produced == n {
			return
		}
		slots.P(func() {
			produced++
			items.V()
			e.After(0.1, produce)
		})
	}
	var consume func()
	consume = func() {
		if consumed == n {
			return
		}
		items.P(func() {
			consumed++
			slots.V()
			e.After(0.3, consume)
		})
	}
	produce()
	consume()
	e.Run()
	if produced != n || consumed != n {
		t.Errorf("produced=%d consumed=%d", produced, consumed)
	}
	// Buffer never held more than its two slots.
	if slots.Count() != 2 || items.Count() != 0 {
		t.Errorf("final sems: slots=%d items=%d", slots.Count(), items.Count())
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 0)
	var order []int
	for i := 0; i < 5; i++ {
		s.P(func() { order = append(order, i) })
	}
	if s.Waiting() != 5 {
		t.Fatalf("Waiting = %d", s.Waiting())
	}
	for i := 0; i < 5; i++ {
		s.V()
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSemaphoreNegativeInitialClamped(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, -5)
	if s.Count() != 0 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestWaitGroupBarrier(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, 3)
	fired := -1.0
	wg.Wait(func() { fired = e.Now() })
	e.After(1, wg.Done)
	e.After(5, wg.Done)
	e.After(3, wg.Done)
	e.Run()
	if fired != 5 {
		t.Errorf("barrier fired at %v, want 5", fired)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, 0)
	fired := false
	wg.Wait(func() { fired = true })
	e.Run()
	if !fired {
		t.Error("Wait on zero group never fired")
	}
}

func TestWaitGroupDoneBelowZeroPanics(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, 0)
	defer func() {
		if recover() == nil {
			t.Error("Done below zero did not panic")
		}
	}()
	wg.Done()
}

// TestDeterminism runs a randomized mixed workload twice with the same seed
// and requires identical event traces.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []float64 {
		e := NewEngine()
		cores := NewResource(e, 3)
		disk := NewResource(e, 1)
		lock := NewResource(e, 1)
		rng := rand.New(rand.NewSource(seed))
		var log []float64
		for w := 0; w < 5; w++ {
			n := 10
			var step func()
			step = func() {
				if n == 0 {
					return
				}
				n--
				dd := rng.Float64() * 0.01
				cd := rng.Float64() * 0.02
				disk.Use(dd, func() {
					cores.Use(cd, func() {
						lock.Use(0.001, func() {
							log = append(log, e.Now())
							step()
						})
					})
				})
			}
			step()
		}
		e.Run()
		return log
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

// TestMakespanLowerBounds: for any job set on a c-server, the makespan is
// at least max(total/c, longest job).
func TestMakespanLowerBounds(t *testing.T) {
	if err := quick.Check(func(durRaw []uint16, capRaw uint8) bool {
		if len(durRaw) == 0 {
			return true
		}
		capacity := int(capRaw%8) + 1
		e := NewEngine()
		r := NewResource(e, capacity)
		var total, longest float64
		for _, d := range durRaw {
			dur := float64(d) / 1000
			total += dur
			if dur > longest {
				longest = dur
			}
			r.Use(dur, func() {})
		}
		makespan := e.Run()
		lower := math.Max(total/float64(capacity), longest)
		return makespan >= lower-1e-9 && makespan <= total+1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	cores := NewResource(e, 8)
	n := 0
	var step func()
	step = func() {
		if n >= b.N {
			return
		}
		n++
		cores.Use(0.001, step)
	}
	for i := 0; i < 16; i++ {
		step()
	}
	e.Run()
}
