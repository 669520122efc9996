package platform

import (
	"math"
	"testing"
	"testing/quick"

	"desksearch/internal/corpus"
)

func TestPresetsValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(All()) != 3 {
		t.Errorf("expected the paper's three platforms, got %d", len(All()))
	}
}

func TestPresetCoreCounts(t *testing.T) {
	if QuadCore().Cores != 4 || Xeon8().Cores != 8 || Manycore32().Cores != 32 {
		t.Error("preset core counts do not match the paper")
	}
}

func TestPresetTable1Targets(t *testing.T) {
	// The paper's Table 1, transcribed.
	q := QuadCore()
	if q.TFilename != 5 || q.TRead != 77 || q.TReadExtract != 88 || q.TInsert != 22 {
		t.Errorf("QuadCore targets = %+v", q)
	}
	x := Xeon8()
	if x.TFilename != 4 || x.TRead != 47 || x.TReadExtract != 61 || x.TInsert != 29 {
		t.Errorf("Xeon8 targets = %+v", x)
	}
	m := Manycore32()
	if m.TFilename != 5 || m.TRead != 73 || m.TReadExtract != 80 || m.TInsert != 28 {
		t.Errorf("Manycore32 targets = %+v", m)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []Profile{
		{Name: "no-cores", Cores: 0, DiskBW: 1, DiskDepth: 1, TRead: 1, TReadExtract: 2, SwitchPenalty: 1, SharedInsertFactor: 1},
		{Name: "no-disk", Cores: 1, DiskBW: 0, DiskDepth: 1, TRead: 1, TReadExtract: 2, SwitchPenalty: 1, SharedInsertFactor: 1},
		{Name: "bad-stages", Cores: 1, DiskBW: 1, DiskDepth: 1, TRead: 5, TReadExtract: 2, SwitchPenalty: 1, SharedInsertFactor: 1},
		{Name: "penalty", Cores: 1, DiskBW: 1, DiskDepth: 1, TRead: 1, TReadExtract: 2, SwitchPenalty: 0.5, SharedInsertFactor: 1},
	}
	for _, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", p.Name)
		}
	}
}

func TestContentionFactor(t *testing.T) {
	p := Profile{MemBeta: 0.1, MemGamma: 0.01}
	if got := p.ContentionFactor(1); got != 1 {
		t.Errorf("f(1) = %v", got)
	}
	if got := p.ContentionFactor(0); got != 1 {
		t.Errorf("f(0) clamps to f(1), got %v", got)
	}
	// f(3) = 1 + 0.1*2 + 0.01*4 = 1.24
	if got := p.ContentionFactor(3); math.Abs(got-1.24) > 1e-12 {
		t.Errorf("f(3) = %v", got)
	}
}

func TestContentionFactorMonotone(t *testing.T) {
	for _, p := range All() {
		prev := 0.0
		for a := 1; a <= p.Cores; a++ {
			f := p.ContentionFactor(a)
			if f < prev {
				t.Errorf("%s: f(%d)=%v < f(%d)=%v", p.Name, a, f, a-1, prev)
			}
			prev = f
		}
	}
}

func TestContentionThroughputCeiling(t *testing.T) {
	// The 32-core machine's aggregate scan throughput A/f(A) must peak
	// near the paper's observed ≈3.5× ceiling.
	p := Manycore32()
	peak := 0.0
	for a := 1; a <= p.Cores; a++ {
		g := float64(a) / p.ContentionFactor(a)
		if g > peak {
			peak = g
		}
	}
	if peak < 3.0 || peak > 5.0 {
		t.Errorf("32-core scan throughput ceiling = %.2f, want ≈3.5–4.5", peak)
	}
}

func TestUnitCostsReproduceTable1(t *testing.T) {
	cs := corpus.Describe(corpus.PaperSpec())
	for _, p := range All() {
		c := p.UnitCosts(cs)
		n := float64(len(cs.Files))
		bytes := float64(cs.TotalBytes)
		unique := float64(cs.TotalUnique)

		if got := c.FilenamePerFile * n; math.Abs(got-p.TFilename) > 0.01 {
			t.Errorf("%s: filename %.2f, want %.2f", p.Name, got, p.TFilename)
		}
		if got := c.DiskSeqSeconds + c.ReadCPUPerByte*bytes; math.Abs(got-p.TRead) > 0.5 {
			t.Errorf("%s: read %.2f, want %.2f", p.Name, got, p.TRead)
		}
		if got := c.DiskSeqSeconds + (c.ReadCPUPerByte+c.ExtractCPUPerByte)*bytes; math.Abs(got-p.TReadExtract) > 0.5 {
			t.Errorf("%s: read+extract %.2f, want %.2f", p.Name, got, p.TReadExtract)
		}
		if got := c.InsertPerUnique * unique; math.Abs(got-p.TInsert) > 0.01 {
			t.Errorf("%s: insert %.2f, want %.2f", p.Name, got, p.TInsert)
		}
	}
}

func TestXeon8IsDiskBound(t *testing.T) {
	// The 8-core machine's defining trait: the read stage is almost
	// entirely disk service, so parallel reads cannot beat the disk floor.
	cs := corpus.Describe(corpus.PaperSpec())
	p := Xeon8()
	c := p.UnitCosts(cs)
	if c.DiskSeqSeconds < 0.85*p.TRead {
		t.Errorf("disk %.1fs of %.1fs read: not disk-bound", c.DiskSeqSeconds, p.TRead)
	}
	// And with depth 1, parallelism cannot raise throughput.
	if p.DiskDepth != 1 {
		t.Errorf("DiskDepth = %d", p.DiskDepth)
	}
}

func TestQuadCoreIsCPUBound(t *testing.T) {
	cs := corpus.Describe(corpus.PaperSpec())
	p := QuadCore()
	c := p.UnitCosts(cs)
	cpuRead := c.ReadCPUPerByte * float64(cs.TotalBytes)
	if cpuRead < 0.7*p.TRead {
		t.Errorf("read CPU %.1fs of %.1fs: 4-core should be CPU-bound", cpuRead, p.TRead)
	}
}

func TestSeqFactor(t *testing.T) {
	// 4-core: 220 / (5+88+22) ≈ 1.913.
	if got := QuadCore().SeqFactor(); math.Abs(got-220.0/115.0) > 1e-9 {
		t.Errorf("QuadCore SeqFactor = %v", got)
	}
	if got := (Profile{}).SeqFactor(); got != 1 {
		t.Errorf("zero profile SeqFactor = %v", got)
	}
}

func TestByName(t *testing.T) {
	for name, cores := range map[string]int{"4core": 4, "8core": 8, "32core": 32, "quadcore": 4, "xeon8": 8, "manycore32": 32} {
		p, err := ByName(name)
		if err != nil || p.Cores != cores {
			t.Errorf("ByName(%q) = %d cores, %v", name, p.Cores, err)
		}
	}
	if _, err := ByName("pdp11"); err == nil {
		t.Error("unknown platform accepted")
	}
}

// Property: unit costs are non-negative for any corpus the generator can
// describe.
func TestUnitCostsNonNegative(t *testing.T) {
	if err := quick.Check(func(files uint16, kb uint16, seed int64) bool {
		spec := corpus.Spec{
			Files:      int(files%500) + 1,
			TotalBytes: int64(kb)<<10 + 1024,
			Seed:       seed,
		}
		cs := corpus.Describe(spec)
		for _, p := range All() {
			c := p.UnitCosts(cs)
			if c.FilenamePerFile < 0 || c.ReadCPUPerByte < 0 ||
				c.ExtractCPUPerByte < 0 || c.InsertPerUnique < 0 || c.DiskSeqSeconds < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
