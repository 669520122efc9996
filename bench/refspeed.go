package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The machines this benchmark runs on are small virtual ones whose speed
// changes under it: on the calibration machine everything — builds,
// loads, queries — ran 1.3 to 1.5 times slower for minutes at a time,
// then fast again (CALIBRATION.md), which no median inside one run can
// see. So next to the timed sections each replicate also times a fixed
// reference kernel, and the timing metrics are reported at the
// reference speed: a time is multiplied, a rate divided, by
// (kernel speed now / nominalSpeed). The raw wall-clock values go to the
// env line. The kernel shares no code with the system under test, so a
// change to the program cannot move it.

// nominalSpeed is the kernel's speed, in MB/s, that metrics are
// reported at: the calibration machine's in its fast state.
const nominalSpeed = 490.0

// refText is the kernel's input: about a megabyte of lower-case words
// from a fixed linear congruential sequence.
var refText = func() []byte {
	text := make([]byte, 0, 1<<20)
	x := uint32(20100511)
	for len(text) < 1<<20-16 {
		x = x*1664525 + 1013904223
		for n := 2 + int(x>>28); n > 0; n-- {
			x = x*1664525 + 1013904223
			text = append(text, 'a'+byte(x>>24)%26)
		}
		text = append(text, ' ')
	}
	return text
}()

// refSink keeps the kernel's result alive.
var refSink atomic.Uint32

// refKernel does what an indexer's inner loop does — scan bytes, hash
// each word, bump its count in a table — over refText. It allocates
// nothing, so it cannot start a collection that would slow it down.
func refKernel(counts []uint32) {
	clear(counts)
	const offset, prime = 14695981039346656037, 1099511628211
	h, inWord := uint64(offset), false
	for _, b := range refText {
		if b >= 'a' && b <= 'z' {
			h, inWord = (h^uint64(b))*prime, true
		} else if inWord {
			counts[h%uint64(len(counts))]++
			h, inWord = offset, false
		}
	}
	refSink.Add(counts[0])
}

// refShots is how often machineSpeed runs the kernel.
const refShots = 9

// machineSpeed collects the heap (a collection running beside the
// kernel would slow it), then runs the kernel on every P at once,
// refShots times, and returns the best speed in MB/s of text per P.
// Interference only ever slows a shot down, so the best one is the
// machine's; the slow state this is here to catch lasts minutes and
// slows them all. It takes about 70 ms.
func machineSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	tables := make([][]uint32, procs)
	for i := range tables {
		tables[i] = make([]uint32, 1<<16)
	}
	runtime.GC()
	best := 0.0
	for range refShots {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, counts := range tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refKernel(counts)
			}()
		}
		wg.Wait()
		best = max(best, float64(len(refText))/1e6/time.Since(t0).Seconds())
	}
	return best
}
