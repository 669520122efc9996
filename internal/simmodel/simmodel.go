// Package simmodel maps the index-generation pipeline onto the
// discrete-event simulator: simulated term extractors, index updaters, the
// shared-index lock, the bounded buffer, and the final "Join Forces" merge,
// all driven by per-platform unit costs (internal/platform) over corpus
// metadata (internal/corpus).
//
// The same core.Config that drives a live goroutine run drives a simulated
// run, so the experiment harness can sweep the paper's configuration space
// — any (x, y, z) on any of the three machines — in milliseconds per run
// and regenerate Tables 1–4.
package simmodel

import (
	"fmt"
	"math/rand"

	"desksearch/internal/core"
	"desksearch/internal/corpus"
	"desksearch/internal/platform"
	"desksearch/internal/sim"
)

// Options control model fidelity.
type Options struct {
	// Batch is the number of files coalesced into one simulated work unit.
	// 1 simulates every file individually; larger values trade temporal
	// resolution for event count. Zero selects 8.
	Batch int
	// Jitter is the relative service-time noise (e.g. 0.01 = ±1%),
	// deterministic per Seed. It reproduces the run-to-run variation the
	// paper averages over five runs.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

func (o Options) normalized() Options {
	if o.Batch < 1 {
		o.Batch = 8
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	return o
}

// RunResult is the outcome of one simulated pipeline execution.
type RunResult struct {
	// Exec is end-to-end virtual seconds.
	Exec float64
	// FilenameGen, ExtractUpdate, and Join are the phase times.
	FilenameGen   float64
	ExtractUpdate float64
	Join          float64
	// CoreBusy and DiskBusy are resource holder-seconds, for utilization
	// analysis.
	CoreBusy float64
	DiskBusy float64
	// Events is the number of simulator events dispatched.
	Events uint64
}

// batch is one simulated unit of Stage 2+3 work: a run of files from one
// extractor's private vector.
type batch struct {
	disk   float64 // disk service seconds (seeks + transfer)
	scan   float64 // CPU seconds to read + extract
	insert float64 // CPU seconds to update the index
	unique float64 // postings produced (for join sizing)
}

// Simulate runs the configured pipeline on the simulated platform over the
// corpus described by cs.
func Simulate(p platform.Profile, cs corpus.Stats, cfg core.Config, opt Options) (RunResult, error) {
	if err := p.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	if len(cs.Files) == 0 {
		return RunResult{}, fmt.Errorf("simmodel: empty corpus")
	}
	opt = opt.normalized()
	cfg = cfg.Normalized()

	m := &model{
		p:     p,
		costs: p.UnitCosts(cs),
		cfg:   cfg,
		opt:   opt,
		eng:   sim.NewEngine(),
		rng:   rand.New(rand.NewSource(opt.Seed)),
	}
	m.cores = sim.NewResource(m.eng, p.Cores)
	m.disk = sim.NewResource(m.eng, p.DiskDepth)
	m.lock = sim.NewResource(m.eng, 1)

	m.buildBatches(cs)
	m.run()

	return RunResult{
		Exec:          m.eng.Now(),
		FilenameGen:   m.filenameGen,
		ExtractUpdate: m.extractEnd - m.filenameGen,
		Join:          m.joinTime,
		CoreBusy:      m.cores.BusySeconds(),
		DiskBusy:      m.disk.BusySeconds(),
		Events:        m.eng.Steps(),
	}, nil
}

// SequentialBaseline returns the modeled sequential execution time scaled
// by the platform's calibration factor — the number the paper's speed-ups
// divide by (≈220/105/90 s on the three machines).
func SequentialBaseline(p platform.Profile, cs corpus.Stats, opt Options) (float64, error) {
	res, err := Simulate(p, cs, core.Config{Implementation: core.Sequential}, opt)
	if err != nil {
		return 0, err
	}
	return res.Exec * p.SeqFactor(), nil
}

// StageTimes returns the modeled Table 1 row for the platform: sequential,
// stage-isolated times for filename generation, reading, reading plus
// extraction, and index update. By construction of the unit-cost
// derivation these reproduce the profile's calibration targets.
func StageTimes(p platform.Profile, cs corpus.Stats) (filename, read, readExtract, insert float64) {
	c := p.UnitCosts(cs)
	n := float64(len(cs.Files))
	bytes := float64(cs.TotalBytes)
	unique := float64(cs.TotalUnique)
	filename = c.FilenamePerFile * n
	read = c.DiskSeqSeconds + c.ReadCPUPerByte*bytes
	readExtract = read + c.ExtractCPUPerByte*bytes
	insert = c.InsertPerUnique * unique
	return filename, read, readExtract, insert
}

type model struct {
	p     platform.Profile
	costs platform.Costs
	cfg   core.Config
	opt   Options
	eng   *sim.Engine
	rng   *rand.Rand

	cores *sim.Resource
	disk  *sim.Resource
	lock  *sim.Resource

	// batches[w] is extractor w's private work vector.
	batches   [][]batch
	total     int // total batch count
	fileCount int

	filenameGen float64
	extractEnd  float64
	joinTime    float64
}

// jitter perturbs a service time by the configured noise.
func (m *model) jitter(x float64) float64 {
	if m.opt.Jitter == 0 || x == 0 {
		return x
	}
	return x * (1 + m.opt.Jitter*(2*m.rng.Float64()-1))
}

// buildBatches deals the corpus to the extractors the way core.Run does —
// file i to extractor i mod x, round-robin — and coalesces each
// extractor's share into batches.
func (m *model) buildBatches(cs corpus.Stats) {
	x := m.cfg.Extractors
	m.fileCount = len(cs.Files)
	m.batches = make([][]batch, x)
	for w := range m.batches {
		var bs []batch
		var cur batch
		n := 0
		for i := w; i < len(cs.Files); i += x {
			f := &cs.Files[i]
			cur.disk += m.p.DiskSeek + float64(f.Size)/m.p.DiskBW
			cur.scan += float64(f.Size) * (m.costs.ReadCPUPerByte + m.costs.ExtractCPUPerByte)
			cur.insert += float64(f.Unique) * m.costs.InsertPerUnique
			cur.unique += float64(f.Unique)
			n++
			if n == m.opt.Batch {
				bs = append(bs, cur)
				cur, n = batch{}, 0
			}
		}
		if n > 0 {
			bs = append(bs, cur)
		}
		m.batches[w] = bs
		m.total += len(bs)
	}
}

// run drives the three phases: filename generation (sequential wall time),
// extract+update, then join.
func (m *model) run() {
	m.filenameGen = m.costs.FilenamePerFile * float64(m.fileCount)
	m.eng.After(m.filenameGen, m.startStage23)
	m.eng.Run()
}

// cpuScan charges a read/extract CPU burst: it competes for a core and is
// stretched by the platform's memory-contention factor (and the
// oversubscription penalty when threads are queued for cores).
func (m *model) cpuScan(nominal float64, cont func()) {
	m.cores.Acquire(func() {
		f := m.p.ContentionFactor(m.cores.InUse())
		if m.cores.QueueLen() > 0 {
			f *= m.p.SwitchPenalty
		}
		m.eng.After(m.jitter(nominal*f), func() {
			m.cores.Release()
			cont()
		})
	})
}

// cpuPlain charges an index-update or join CPU burst: it competes for a
// core and pays the oversubscription penalty, but not the scan-bandwidth
// contention factor (its costs are calibrated separately, and the shared-
// index coherence penalty is applied by the caller).
func (m *model) cpuPlain(nominal float64, cont func()) {
	m.cores.Acquire(func() {
		d := nominal
		if m.cores.QueueLen() > 0 {
			d *= m.p.SwitchPenalty
		}
		m.eng.After(m.jitter(d), func() {
			m.cores.Release()
			cont()
		})
	})
}

// startStage23 launches extractors (and updaters when y > 0).
func (m *model) startStage23() {
	x := m.cfg.Extractors
	useBuffer := m.cfg.Updaters > 0

	// Replica posting totals for join sizing.
	replicas := make([]float64, m.cfg.Replicas())

	onStage23Done := func() {
		m.extractEnd = m.eng.Now()
		m.startJoin(replicas)
	}

	if !useBuffer {
		wg := sim.NewWaitGroup(m.eng, x)
		wg.Wait(onStage23Done)
		for w := 0; w < x; w++ {
			m.extractorDirect(w, replicas, wg)
		}
		return
	}

	// Bounded buffer between extractors and updaters.
	slots := sim.NewSemaphore(m.eng, m.cfg.Buffer)
	items := sim.NewSemaphore(m.eng, 0)
	queue := make([]batch, 0, m.cfg.Buffer)
	claimed := 0

	wgUpd := sim.NewWaitGroup(m.eng, m.cfg.Updaters)
	wgUpd.Wait(onStage23Done)

	for w := 0; w < x; w++ {
		m.extractorProducing(w, slots, items, &queue)
	}
	for u := 0; u < m.cfg.Updaters; u++ {
		m.updater(u, slots, items, &queue, &claimed, replicas, wgUpd)
	}
}

// extractorDirect models an extractor that updates the index itself
// (y = 0): read, scan, insert (locked for SharedIndex, private otherwise).
func (m *model) extractorDirect(w int, replicas []float64, wg *sim.WaitGroup) {
	bs := m.batches[w]
	i := 0
	var step func()
	step = func() {
		if i >= len(bs) {
			wg.Done()
			return
		}
		b := bs[i]
		i++
		m.disk.Use(m.jitter(b.disk), func() {
			m.cpuScan(b.scan, func() {
				m.insertPath(b, w, replicas, step)
			})
		})
	}
	step()
}

// extractorProducing models an extractor feeding the bounded buffer.
func (m *model) extractorProducing(w int, slots, items *sim.Semaphore, queue *[]batch) {
	bs := m.batches[w]
	i := 0
	var step func()
	step = func() {
		if i >= len(bs) {
			return
		}
		b := bs[i]
		i++
		m.disk.Use(m.jitter(b.disk), func() {
			// The enqueue's lock pair is charged with the scan burst.
			m.cpuScan(b.scan+m.p.ChannelOp, func() {
				slots.P(func() {
					*queue = append(*queue, b)
					items.V()
					step()
				})
			})
		})
	}
	step()
}

// updater models an index-update thread draining the buffer (y > 0).
// claimed reserves batches so the y updaters collectively stop after
// exactly total batches.
func (m *model) updater(u int, slots, items *sim.Semaphore, queue *[]batch, claimed *int, replicas []float64, wg *sim.WaitGroup) {
	var loop func()
	loop = func() {
		if *claimed == m.total {
			wg.Done()
			return
		}
		*claimed++
		items.P(func() {
			b := (*queue)[0]
			*queue = (*queue)[1:]
			slots.V()
			b.insert += m.p.ChannelOp // the dequeue's lock pair
			m.insertPath(b, u, replicas, loop)
		})
	}
	loop()
}

// insertPath charges Stage 3 for one batch according to the
// implementation: under the global lock with the coherence penalty
// (SharedIndex), or into the worker's private replica (Replicated*,
// Sequential).
func (m *model) insertPath(b batch, slot int, replicas []float64, cont func()) {
	switch m.cfg.Implementation {
	case core.SharedIndex:
		m.lock.Acquire(func() {
			cost := b.insert*m.p.SharedInsertFactor + m.p.LockOverhead
			m.cpuPlain(cost, func() {
				m.lock.Release()
				cont()
			})
		})
	default:
		if slot < len(replicas) {
			replicas[slot] += b.unique
		}
		m.cpuPlain(b.insert, cont)
	}
}

// startJoin runs the "Join Forces" reduction for ReplicatedJoin; other
// implementations finish here.
func (m *model) startJoin(replicas []float64) {
	if m.cfg.Implementation != core.ReplicatedJoin || len(replicas) < 2 {
		return
	}
	joinStart := m.eng.Now()
	z := m.cfg.Joiners
	if z < 1 {
		z = 1
	}
	ready := append([]float64(nil), replicas...)
	busy := 0
	remaining := len(replicas) - 1

	var tryDispatch func()
	tryDispatch = func() {
		for len(ready) >= 2 && busy < z {
			a, b := ready[0], ready[1]
			ready = ready[2:]
			busy++
			cost := (a + b) * m.p.JoinPerPosting
			m.cpuPlain(cost, func() {
				busy--
				ready = append(ready, a+b)
				remaining--
				if remaining == 0 {
					m.joinTime = m.eng.Now() - joinStart
					return
				}
				tryDispatch()
			})
		}
	}
	tryDispatch()
}
