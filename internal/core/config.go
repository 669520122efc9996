// Package core implements the paper's contribution: the parallel index
// generation pipeline, in the three alternative designs whose comparison is
// the subject of the study.
//
//   - Implementation 1 (SharedIndex): one index shared by every updater,
//     locked on update.
//   - Implementation 2 (ReplicatedJoin): one private index per updater,
//     joined into a single index at the end ("Join Forces" — no locking,
//     just a barrier and a join).
//   - Implementation 3 (ReplicatedSearch): private indices that are never
//     joined; the search side queries all of them in parallel instead.
//
// A pipeline run is described by a Config carrying the paper's thread
// tuple (x, y, z): x term extractors, y index updaters, z index joiners.
// With y = 0 the extractors update the index themselves (no separate
// updater stage); with y ≥ 1 extractors pass term blocks to updaters
// through a bounded buffer.
package core

import (
	"fmt"

	"desksearch/internal/extract"
	"desksearch/internal/shard"
)

// Implementation selects one of the paper's index-interaction designs.
type Implementation int

const (
	// Sequential is the single-threaded baseline the paper's speed-ups are
	// measured against.
	Sequential Implementation = iota
	// SharedIndex is Implementation 1: a single lock-guarded index.
	SharedIndex
	// ReplicatedJoin is Implementation 2: replica indices joined at the end.
	ReplicatedJoin
	// ReplicatedSearch is Implementation 3: replica indices left unjoined.
	ReplicatedSearch
)

// String returns the paper's name for the implementation.
func (im Implementation) String() string {
	switch im {
	case Sequential:
		return "Sequential"
	case SharedIndex:
		return "Implementation 1"
	case ReplicatedJoin:
		return "Implementation 2"
	case ReplicatedSearch:
		return "Implementation 3"
	default:
		return fmt.Sprintf("Implementation(%d)", int(im))
	}
}

// Config describes one pipeline run. The zero value runs sequentially; use
// Default for a sensible parallel starting point.
//
// How filenames reach the extractors is fixed, not configured: Stage 1
// lists them all up front and deals them round-robin into one private
// vector per extractor (file i to extractor i mod x). The paper measured
// that fastest, against size-aware and chunked dealing, work stealing, and
// a Stage 1 running concurrently with extraction.
type Config struct {
	// Implementation selects the index-interaction design.
	Implementation Implementation
	// Extractors is x: the number of term-extraction goroutines.
	Extractors int
	// Updaters is y: the number of index-update goroutines. Zero means
	// extractors update the index directly (no separate stage 3 threads).
	Updaters int
	// Joiners is z: the number of goroutines merging replica indices at
	// the end (ReplicatedJoin only). Zero or one joins single-threaded.
	Joiners int
	// Buffer is the capacity of the term-block channel between extractors
	// and updaters (split across the per-updater channels of a sharded
	// replicated run). Zero selects 8 blocks per extractor.
	Buffer int
	// Shards, when positive, makes that many document shards the sinks of
	// Stage 3 (a shard.Set in Result.Shards) instead of a single index or
	// replica slice: every term block goes to the shard.ShardFor shard of
	// its file as it leaves Stage 2, under every implementation, so no
	// join or redistribution pass follows. The implementation still
	// decides who inserts — Sequential's one thread, lock-striped shards
	// for SharedIndex and for extractors updating directly, one owning
	// updater per shard for the replicated designs.
	Shards int
	// Extract configures term extraction.
	Extract extract.Options
}

// Default returns the paper's default parallel configuration for the given
// implementation on a machine with cores cores: extractors fill the
// machine, one updater, single-threaded join. The tuple is all it chooses:
// every Config deals filenames round-robin.
func Default(im Implementation, cores int) Config {
	if cores < 1 {
		cores = 1
	}
	x := cores - 1
	if x < 1 {
		x = 1
	}
	cfg := Config{Implementation: im, Extractors: x, Updaters: 1}
	if im == Sequential {
		cfg.Extractors, cfg.Updaters = 1, 0
	}
	return cfg
}

// Tuple renders the thread configuration in the paper's notation, e.g.
// "(3, 1, 0)".
func (c Config) Tuple() string {
	return fmt.Sprintf("(%d, %d, %d)", c.Extractors, c.Updaters, c.Joiners)
}

// normalized returns a copy with defaults filled in and nonsense clamped:
// the configuration Run executes.
func (c Config) normalized() Config {
	if c.Implementation == Sequential {
		c.Extractors, c.Updaters, c.Joiners = 1, 0, 0
	}
	if c.Extractors < 1 {
		c.Extractors = 1
	}
	if c.Updaters < 0 {
		c.Updaters = 0
	}
	if c.Joiners < 0 {
		c.Joiners = 0
	}
	if c.Implementation != ReplicatedJoin {
		c.Joiners = 0
	}
	if c.Buffer <= 0 {
		c.Buffer = 8 * c.Extractors
	}
	return c
}

// Validate reports configurations that cannot be run.
func (c Config) Validate() error {
	switch c.Implementation {
	case Sequential, SharedIndex, ReplicatedJoin, ReplicatedSearch:
	default:
		return fmt.Errorf("core: unknown implementation %d", int(c.Implementation))
	}
	if c.Extractors < 0 || c.Updaters < 0 || c.Joiners < 0 || c.Buffer < 0 {
		return fmt.Errorf("core: negative thread count in %s", c.Tuple())
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if c.Shards > shard.MaxShards {
		return fmt.Errorf("core: shard count %d is above the limit of %d", c.Shards, shard.MaxShards)
	}
	return nil
}

// Replicas returns the number of replica indices the configuration builds:
// one per updater, or one per extractor when updaters are absent. The
// SharedIndex and Sequential designs always have exactly one.
func (c Config) Replicas() int {
	c = c.normalized()
	switch c.Implementation {
	case ReplicatedJoin, ReplicatedSearch:
		if c.Updaters > 0 {
			return c.Updaters
		}
		return c.Extractors
	default:
		return 1
	}
}
