// Package platform models the paper's three evaluation machines.
//
// A Profile captures a machine as the simulator sees it: core count, disk
// characteristics, memory-contention behaviour, and the paper's measured
// Table 1 stage times, from which per-unit costs (seconds per byte read,
// per term inserted, …) are derived against the benchmark corpus statistics.
//
// This package is the heart of the hardware substitution documented in
// DESIGN.md: we do not have a Core2Quad Q6600, a dual Xeon E5320, or a
// four-socket X7560, so their observable behaviour — how stage costs scale
// with threads, where the disk saturates, how expensive shared-index cache
// traffic is — is expressed as calibrated constants instead.
package platform

import (
	"fmt"

	"desksearch/internal/corpus"
)

// Profile describes one simulated machine.
type Profile struct {
	// Name identifies the platform in reports ("4-core Intel machine").
	Name string
	// Cores is the number of processor cores (the simulator's CPU
	// resource capacity).
	Cores int

	// TFilename, TRead, TReadExtract, TInsert are the paper's Table 1
	// sequential stage seconds for this machine; unit costs are derived
	// from them.
	TFilename, TRead, TReadExtract, TInsert float64

	// DiskSeek is the per-file positioning cost in seconds (effective:
	// the paper's corpus reads mostly OS-cached, sequentially laid-out
	// files, so this is far below a cold random seek).
	DiskSeek float64
	// DiskBW is the sustained per-stream disk bandwidth in bytes/second.
	DiskBW float64
	// DiskDepth is how many I/Os the disk serves concurrently at full
	// stream bandwidth (command queueing + readahead).
	DiskDepth int

	// MemBeta and MemGamma shape the memory-contention factor applied to
	// scan CPU bursts: f(A) = 1 + MemBeta·(A−1) + MemGamma·(A−1)², where A
	// is the number of busy cores. Aggregate scan throughput A/f(A) then
	// saturates (and with MemGamma > 0 eventually declines), reproducing
	// each machine's measured parallel-scaling ceiling.
	MemBeta, MemGamma float64
	// SwitchPenalty multiplies CPU bursts granted while other threads are
	// queued for a core (oversubscription: context switches + cache
	// pollution).
	SwitchPenalty float64

	// SharedInsertFactor multiplies insert costs into the single shared
	// index (Implementation 1): cache-coherence traffic on a structure
	// written by several threads. Private replicas pay 1.0.
	SharedInsertFactor float64
	// LockOverhead is the cost of one lock acquire/release pair.
	LockOverhead float64
	// ChannelOp is the cost of one bounded-buffer enqueue+dequeue pair.
	ChannelOp float64
	// JoinPerPosting is the per-posting cost of merging replica indices.
	JoinPerPosting float64

	// PaperSequential is the paper's reported sequential execution time;
	// speed-ups are computed against it. SeqFactor() calibrates the model
	// to reach it.
	PaperSequential float64
}

// Validate reports profiles that cannot drive a simulation.
func (p Profile) Validate() error {
	switch {
	case p.Cores < 1:
		return fmt.Errorf("platform %s: cores %d", p.Name, p.Cores)
	case p.DiskBW <= 0 || p.DiskDepth < 1:
		return fmt.Errorf("platform %s: bad disk model", p.Name)
	case p.TRead <= 0 || p.TReadExtract < p.TRead:
		return fmt.Errorf("platform %s: inconsistent stage targets", p.Name)
	case p.SwitchPenalty < 1 || p.SharedInsertFactor < 1:
		return fmt.Errorf("platform %s: penalties must be ≥ 1", p.Name)
	}
	return nil
}

// ContentionFactor returns f(A), the multiplier on scan CPU bursts when A
// cores are busy.
func (p Profile) ContentionFactor(active int) float64 {
	if active < 1 {
		active = 1
	}
	a := float64(active - 1)
	return 1 + p.MemBeta*a + p.MemGamma*a*a
}

// Costs are the per-unit costs derived from a profile and a corpus.
type Costs struct {
	// FilenamePerFile is Stage 1 traversal cost per file.
	FilenamePerFile float64
	// ReadCPUPerByte is the CPU cost of the byte-reading loop, excluding
	// disk service time.
	ReadCPUPerByte float64
	// ExtractCPUPerByte is the additional CPU cost of term extraction.
	ExtractCPUPerByte float64
	// InsertPerUnique is the index-update cost per distinct (term, file)
	// posting.
	InsertPerUnique float64
	// DiskSeqSeconds is the modelled sequential disk service time for the
	// whole corpus.
	DiskSeqSeconds float64
}

// UnitCosts derives per-unit costs such that a sequential, stage-isolated
// simulation of cs reproduces the profile's Table 1 targets.
func (p Profile) UnitCosts(cs corpus.Stats) Costs {
	n := float64(len(cs.Files))
	bytes := float64(cs.TotalBytes)
	unique := float64(cs.TotalUnique)
	diskSeq := n*p.DiskSeek + bytes/p.DiskBW
	readCPU := p.TRead - diskSeq
	if readCPU < 0 {
		readCPU = 0
	}
	c := Costs{
		DiskSeqSeconds:    diskSeq,
		FilenamePerFile:   p.TFilename / maxF(n, 1),
		ReadCPUPerByte:    readCPU / maxF(bytes, 1),
		ExtractCPUPerByte: maxF(p.TReadExtract-p.TRead, 0) / maxF(bytes, 1),
		InsertPerUnique:   p.TInsert / maxF(unique, 1),
	}
	return c
}

// SeqFactor returns the calibration multiplier applied to the modeled
// sequential run so that it lands on the paper's reported sequential time.
// The paper's sequential implementation is slower than the sum of its
// Table 1 stage measurements (markedly so on the 4-core machine) for
// reasons the paper does not break down; this factor absorbs that gap.
// Parallel runs are not scaled.
func (p Profile) SeqFactor() float64 {
	stageSum := p.TFilename + p.TReadExtract + p.TInsert
	if stageSum <= 0 {
		return 1
	}
	return p.PaperSequential / stageSum
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// QuadCore models the paper's 4-core machine: Intel Core2Quad Q6600,
// 2.4 GHz, 4 GB RAM, Windows 7 64-bit. A fast desktop: scanning is
// CPU-bound (the disk keeps up), memory contention is mild, and all three
// implementations end up equivalent — the paper's Table 2.
func QuadCore() Profile {
	return Profile{
		Name:  "4-core Intel machine",
		Cores: 4,

		TFilename:    5.0,
		TRead:        77.0,
		TReadExtract: 88.0,
		TInsert:      22.0,

		DiskSeek:  0.10e-3,
		DiskBW:    80e6,
		DiskDepth: 4,

		MemBeta:       0.26,
		MemGamma:      0.004,
		SwitchPenalty: 1.18,

		SharedInsertFactor: 1.25,
		LockOverhead:       2e-6,
		ChannelOp:          2e-6,
		JoinPerPosting:     0.04e-6,

		PaperSequential: 220.0,
	}
}

// Xeon8 models the paper's 8-core machine: two Intel Xeon E5320, 1.86 GHz,
// 8 GB RAM, Ubuntu 8.10 64-bit. Its defining trait is a slow disk: the
// byte-reading stage is I/O-bound, capping every implementation near the
// 47-second read floor and compressing speed-ups to ≈2 — the paper's
// Table 3.
func Xeon8() Profile {
	return Profile{
		Name:  "8-core Intel machine",
		Cores: 8,

		TFilename:    4.0,
		TRead:        47.0,
		TReadExtract: 61.0,
		TInsert:      29.0,

		DiskSeek:  0.05e-3,
		DiskBW:    20.5e6,
		DiskDepth: 1,

		MemBeta:       0.15,
		MemGamma:      0.004,
		SwitchPenalty: 1.18,

		SharedInsertFactor: 1.45,
		LockOverhead:       3e-6,
		ChannelOp:          3e-6,
		JoinPerPosting:     0.60e-6,

		PaperSequential: 105.0,
	}
}

// Manycore32 models the paper's 32-core machine: four Intel Xeon X7560,
// 2.27 GHz, 8 GB RAM, RHEL 4 64-bit (Intel Manycore Testing Lab). Plenty
// of cores and I/O, but cross-socket memory traffic caps aggregate scan
// throughput around 3.5×, and shared-index cache coherence makes
// Implementation 1 distinctly worst — the paper's Table 4.
func Manycore32() Profile {
	return Profile{
		Name:  "32-core Intel machine",
		Cores: 32,

		TFilename:    5.0,
		TRead:        73.0,
		TReadExtract: 80.0,
		TInsert:      28.0,

		DiskSeek:  0.05e-3,
		DiskBW:    200e6,
		DiskDepth: 8,

		MemBeta:       0.08,
		MemGamma:      0.009,
		SwitchPenalty: 1.18,

		SharedInsertFactor: 1.45,
		LockOverhead:       3e-6,
		ChannelOp:          3e-6,
		JoinPerPosting:     0.53e-6,

		PaperSequential: 90.0,
	}
}

// All returns the three paper platforms in presentation order.
func All() []Profile {
	return []Profile{QuadCore(), Xeon8(), Manycore32()}
}

// ByName returns the profile with the given short name: "4core", "8core",
// or "32core".
func ByName(name string) (Profile, error) {
	switch name {
	case "4core", "quadcore":
		return QuadCore(), nil
	case "8core", "xeon8":
		return Xeon8(), nil
	case "32core", "manycore32":
		return Manycore32(), nil
	default:
		return Profile{}, fmt.Errorf("platform: unknown %q (want 4core, 8core, or 32core)", name)
	}
}
