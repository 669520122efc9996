// Package core implements the paper's contribution: the parallel index
// generation pipeline, in the design the study found best where the
// designs differ (Implementation 3, "replicate, no join").
//
// A pipeline run is described by a Config carrying the paper's thread
// tuple (x, y): x term extractors and y index updaters. With y = 0 the one
// extractor updates the index itself (the sequential baseline); with y ≥ 1
// extractors pass term blocks to updaters through bounded lanes.
//
// Pipeline is Stages 2 and 3, the one path from files to partitions: a
// build (Run) runs it over a listed tree, an update (internal/delta) over a
// numbered changeset at the catalog's tuple. Each term block goes to the
// shard.ShardFor partition of its file as it leaves Stage 2, so a routing
// rule, not the history of the build, says which partition holds a
// document. Each partition has exactly one owner that inserts into it,
// without locks, and seals it when its input ends; an update joins each
// sealed partition into the live one of its number. The paper's other two
// designs — one lock-guarded shared index (Implementation 1) and replicas
// joined at the end (Implementation 2) — tie with it on four cores and
// lose on 32; docs/ARCHITECTURE.md records the measurements, not the code.
package core

import (
	"fmt"

	"desksearch/internal/extract"
	"desksearch/internal/shard"
)

// Implementation names the paper's index-interaction design. Only
// Implementation 3 is built, so the type has one value, kept for callers
// that still pass it to Default.
type Implementation int

// ReplicatedSearch is the paper's Implementation 3: partitions with one
// owner each, never joined; the search side queries all of them.
const ReplicatedSearch Implementation = 3

// Config describes one pipeline run. The zero value runs sequentially; use
// Default or Auto for a parallel starting point.
//
// How filenames reach the extractors is fixed, not configured: Stage 1
// lists them all up front and deals them round-robin into one private
// vector per extractor (file i to extractor i mod x). The paper measured
// that fastest, against size-aware and chunked dealing, work stealing, and
// a Stage 1 running concurrently with extraction. Nor is the depth of the
// lanes between the stages: 32 blocks per extractor each.
type Config struct {
	// Extractors is x: the number of term-extraction goroutines.
	Extractors int
	// Updaters is y: the number of index-update goroutines. Zero means the
	// extractor updates the index itself, which only one extractor may
	// do: with several, zero runs as one updater.
	Updaters int
	// Shards, when positive, is the number of partitions in Result.Set.
	// Zero means one per updater, or one when there are none. Either way
	// every term block goes to the shard.ShardFor partition of its file as
	// it leaves Stage 2, and updater u owns the partitions s ≡ u (mod y).
	Shards int
	// Extract configures term extraction.
	Extract extract.Options
}

// Default returns the default parallel configuration on a machine with
// cores cores: an extractor per core and one updater. Stage 3 only logs
// each block and builds every list once at the end (index.Builder), so it
// costs a fraction of extraction and needs no core of its own. The
// implementation is ignored: every build is Implementation 3, and the
// parameter stays only for callers written when there were three.
func Default(_ Implementation, cores int) Config {
	return Config{Extractors: max(cores, 1), Updaters: 1}
}

// Auto returns the configuration the library runs when its options leave
// the tuple unset, on a machine with cores cores: Default's extractors and
// two updaters, so the build has two partitions.
func Auto(cores int) Config {
	cfg := Default(ReplicatedSearch, cores)
	cfg.Updaters = 2
	return cfg
}

// Tuple renders the thread configuration in the paper's notation, e.g.
// "(3, 1)".
func (c Config) Tuple() string {
	return fmt.Sprintf("(%d, %d)", c.Extractors, c.Updaters)
}

// normalized returns a copy with defaults filled in and nonsense clamped:
// the configuration Run executes.
func (c Config) normalized() Config {
	c.Extractors = max(c.Extractors, 1)
	c.Updaters = max(c.Updaters, 0)
	if c.Extractors > 1 && c.Updaters == 0 {
		c.Updaters = 1
	}
	return c
}

// Validate reports configurations that cannot be run.
func (c Config) Validate() error {
	if c.Extractors < 0 || c.Updaters < 0 {
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

// Replicas returns the number of partitions the configuration builds when
// Shards is zero: one per updater, or one when there are none.
func (c Config) Replicas() int {
	return max(c.normalized().Updaters, 1)
}
