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
//
// Every run yields one kind of output, a shard.Set: each term block goes
// to the shard.ShardFor partition of its file as it leaves Stage 2, so a
// routing rule, not the history of the build, says which partition holds
// a document. The design decides how many partitions there are and who
// inserts into them; Implementation 3's replicas are its partitions.
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
	// Buffer is the capacity of each term-block buffer between extractors
	// and updaters: the one channel SharedIndex's updaters share, or every
	// one of the replicated designs' per-updater lanes. A lane feeds one
	// owner, so a burst routed to it must fit there or stall every
	// extractor while the other owners idle. Zero selects 32 blocks per
	// extractor.
	Buffer int
	// Shards, when positive, is the number of partitions in Result.Set,
	// under every implementation, with no join. Zero leaves the count to
	// the design: one per replica for ReplicatedSearch (Replicas), the
	// replicas joined into one for ReplicatedJoin, and one for Sequential
	// and SharedIndex. Either way every term block goes to the
	// shard.ShardFor partition of its file as it leaves Stage 2, and the
	// implementation decides who inserts — lock-striped partitions for
	// SharedIndex and for several extractors updating directly, one owner
	// per partition otherwise.
	Shards int
	// Extract configures term extraction.
	Extract extract.Options
}

// Default returns the default parallel configuration for the given
// implementation on a machine with cores cores: an extractor per core, one
// updater, single-threaded join. Stage 3 only logs each block and builds
// every list once at the end (index.Builder), so it costs a fraction of
// extraction and needs no core of its own. The tuple is all it chooses:
// every Config deals filenames round-robin.
func Default(im Implementation, cores int) Config {
	cfg := Config{Implementation: im, Extractors: max(cores, 1), Updaters: 1}
	if im == Sequential {
		cfg.Extractors, cfg.Updaters = 1, 0
	}
	return cfg
}

// Auto returns the configuration the library's Auto implementation runs on
// a machine with cores cores: Implementation 3 with Default's tuple but at
// least two updaters, so the build has at least two replicas.
func Auto(cores int) Config {
	cfg := Default(ReplicatedSearch, cores)
	cfg.Updaters = max(cfg.Updaters, 2)
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
		c.Buffer = 32 * c.Extractors
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

// Replicas returns the number of replica indices the configuration builds
// when Shards is zero: one per updater, or one per extractor when updaters
// are absent. The SharedIndex and Sequential designs always have exactly
// one.
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
