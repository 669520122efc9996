// Package broker implements dsearchd's scatter-gather front end for
// distributed serving: a thin coordinator that fans queries out to worker
// daemons (dsearchd -worker), each holding a subset of one sharded index
// directory, and merges their partial results into responses bit-identical
// to what a single node serving the whole directory would produce.
//
// The deployment unit is the replica group: an ordered list of worker URLs
// that all serve the same shard subset. Groups partition the directory —
// their shard sets are disjoint and together cover every shard — and
// replicas within a group are interchangeable, which is what failover and
// hedging trade on. The topology is declared up front (dsearchd -broker
// -workers=...) and verified against every reachable worker's
// /internal/meta before the broker serves.
//
// The broker has no public query surface of its own: /search and /suggest
// are the node's front door (server.FrontDoor) over a Backend whose Search
// is the scatter-gather below, whose Suggest merges the workers' local
// suggestions, and whose ErrorStatus passes a worker's rejection through
// and blames everything else on the fleet (502). Parsing, validation,
// error bodies and request metrics are therefore a node's by construction.
//
// Three mechanisms keep tail latency in check, in escalating order:
//
//   - rotation: each request starts at the next healthy replica of a
//     group, spreading load round-robin and skipping replicas the health
//     loop has marked down;
//   - failover: a retryable failure (connection error, 5xx, per-attempt
//     timeout) immediately starts the next replica, so one dead worker
//     costs one RTT, not a user-visible error; a group's last candidate
//     has no per-attempt timeout — there is nobody left to fail over to —
//     and runs to the request's deadline;
//   - hedging: if the primary has not answered after the group's hedge
//     delay — the 95th percentile of its recent latencies, or a fixed
//     -hedge value — the same request is issued to the next replica and
//     the first answer wins. Requests are read-only and idempotent, so
//     the duplicate work is pure insurance against stragglers.
//
// Workers answer query traffic in one binary layout (server.Partial), and
// BM25 over several groups is verify-then-return: the broker scatters with
// corpus-wide statistics from a small table it never invalidates, and
// returns a page only after the workers' own statistics, carried in their
// partials, confirm the ones it sent (see query and dfTable).
//
// Only deterministic worker rejections (HTTP 4xx: parse errors, unknown
// rankings, over-broad prefixes) stop a request early — a replica would
// fail identically, so retrying is waste. Everything else is retried
// until the group runs out of replicas.
package broker

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"desksearch/internal/metrics"
	"desksearch/internal/server"
	"desksearch/internal/timing"
)

// Config wires a Broker to its worker fleet.
type Config struct {
	// Groups is the replica topology: one inner slice per shard-subset
	// group, each listing the base URLs (http://host:port) of the workers
	// serving that subset. Required, and every group needs at least one
	// URL.
	Groups [][]string
	// Timeout bounds each front-door request end to end; zero falls back
	// to 10 s. A request's own timeout parameter may shorten it.
	Timeout time.Duration
	// MaxLimit caps the per-request limit parameter (and /suggest's n);
	// zero falls back to 1000. Workers never clamp the limit a broker
	// sends to /internal/search, so deep pages are safe whatever the
	// workers' own -max-limit; only /suggest's n is clamped worker-side.
	MaxLimit int
	// HedgeAfter, when positive, is a fixed delay before a straggling
	// worker request is hedged to the next replica. Zero selects the
	// adaptive policy: the group's observed p95 latency (floored at
	// MinHedgeDelay), so hedges fire for genuine stragglers rather than
	// on every slightly slow request.
	HedgeAfter time.Duration
	// Logf, when non-nil, receives one line per replica health transition
	// and per failover.
	Logf func(format string, args ...any)
}

// MinHedgeDelay floors the adaptive hedge delay, keeping a cold window
// (or a microsecond-fast group) from hedging every request in two.
const MinHedgeDelay = 2 * time.Millisecond

// defaultHedgeDelay is the adaptive policy's stand-in before a group has
// observed any latencies.
const defaultHedgeDelay = 50 * time.Millisecond

// replica is one worker endpoint of a group.
type replica struct {
	url     string
	healthy atomic.Bool
}

// group is one shard-subset replica group.
type group struct {
	replicas []*replica
	// rr is the rotation cursor: each request starts at the next healthy
	// replica, spreading load across the group.
	rr atomic.Uint64
	// window holds recent successful request latencies against this
	// group — the adaptive hedge delay's and per-attempt timeout's input.
	window *timing.Window
	// shards is the group's verified shard subset (from /internal/meta).
	shards []int
	// generation is the group's last observed catalog generation.
	generation atomic.Uint64
}

// Broker is the scatter-gather coordinator. Create with New, verify the
// fleet with CheckTopology, serve Handler, and run Watch for health
// rotation.
type Broker struct {
	groups []*group
	client httpDoer
	hedge  time.Duration
	logf   func(string, ...any)
	start  time.Time

	// door serves /search and /suggest — the node's own front door over
	// this broker's scatter-gather — and owns the request timeout ceiling
	// and the queries/query-errors counters.
	door *server.FrontDoor

	// Fleet facts established by CheckTopology.
	totalShards int
	files       int
	positional  bool

	hedges, hedgeWins, failovers atomic.Uint64

	// df remembers corpus-wide document frequencies between queries, and
	// the counters say how it fared: a hit saved the /internal/df round, a
	// miss paid it, and stale counts the times the workers' own vectors
	// contradicted what a query had been scored with and it was re-issued.
	df                        dfTable
	dfHits, dfMisses, dfStale atomic.Uint64

	// reg is the /metrics exposition surface, built at the end of New over
	// the front door's instruments and the counters above (see metrics.go).
	reg *metrics.Registry
}

// New returns a broker over cfg. The worker fleet is not contacted —
// call CheckTopology before serving.
func New(cfg Config) (*Broker, error) {
	if len(cfg.Groups) == 0 {
		return nil, errors.New("broker: no worker groups configured")
	}
	b := &Broker{
		groups: make([]*group, len(cfg.Groups)),
		client: newHTTPClient(),
		hedge:  cfg.HedgeAfter,
		logf:   cfg.Logf,
		start:  time.Now(),
		reg:    metrics.NewRegistry(),
	}
	if b.logf == nil {
		b.logf = func(string, ...any) {}
	}
	for gi, urls := range cfg.Groups {
		if len(urls) == 0 {
			return nil, fmt.Errorf("broker: group %d has no workers", gi)
		}
		g := &group{window: timing.NewWindow(0)}
		for _, raw := range urls {
			u, err := url.Parse(strings.TrimRight(raw, "/"))
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("broker: group %d: invalid worker URL %q", gi, raw)
			}
			r := &replica{url: u.String()}
			r.healthy.Store(true) // optimistic until the health loop says otherwise
			g.replicas = append(g.replicas, r)
		}
		b.groups[gi] = g
	}
	b.door = server.NewFrontDoor(server.Backend{Search: b.query, Suggest: b.suggest, ErrorStatus: errorStatus},
		cfg.Timeout, cfg.MaxLimit, b.reg)
	b.registerMetrics()
	return b, nil
}

// CheckTopology fetches /internal/meta from every reachable worker and
// verifies the declared groups form a coherent deployment: replicas of a
// group serve identical shard subsets, every group agrees on the
// directory's shard count and live file count (they must serve the same
// manifest), and the groups' subsets are disjoint and together cover
// every shard. At least one replica per group must be reachable; an
// unreachable replica is marked unhealthy and skipped rather than
// failing the check — that is a capacity problem, not a topology one.
func (b *Broker) CheckTopology(ctx context.Context) error {
	type groupMeta struct {
		meta WorkerMetaView
		from string
	}
	metas := make([]groupMeta, len(b.groups))
	for gi, g := range b.groups {
		var first *groupMeta
		for _, r := range g.replicas {
			m, err := b.fetchMeta(ctx, r.url)
			if err != nil {
				r.healthy.Store(false)
				b.logf("broker: topology: %s unreachable: %v", r.url, err)
				continue
			}
			r.healthy.Store(true)
			if first == nil {
				first = &groupMeta{meta: m, from: r.url}
				continue
			}
			if !slices.Equal(m.Shards, first.meta.Shards) || m.TotalShards != first.meta.TotalShards {
				return fmt.Errorf("broker: group %d replicas disagree: %s serves shards %v/%d, %s serves %v/%d",
					gi, first.from, first.meta.Shards, first.meta.TotalShards, r.url, m.Shards, m.TotalShards)
			}
		}
		if first == nil {
			return fmt.Errorf("broker: group %d: no reachable worker", gi)
		}
		metas[gi] = *first
	}

	total := metas[0].meta.TotalShards
	files := metas[0].meta.Files
	positional := true
	claimed := make(map[int]int) // shard -> claiming group
	for gi, gm := range metas {
		m := gm.meta
		if m.TotalShards != total {
			return fmt.Errorf("broker: shard-count mismatch: %s reports %d total shards, %s reports %d",
				metas[0].from, total, gm.from, m.TotalShards)
		}
		if m.Files != files {
			return fmt.Errorf("broker: manifest mismatch: %s reports %d files, %s reports %d — workers must serve the same index directory",
				metas[0].from, files, gm.from, m.Files)
		}
		positional = positional && m.Positional
		if len(m.Shards) == 0 {
			return fmt.Errorf("broker: group %d (%s) serves no shards", gi, gm.from)
		}
		for _, s := range m.Shards {
			if prev, dup := claimed[s]; dup {
				return fmt.Errorf("broker: shard %d claimed by both group %d and group %d", s, prev, gi)
			}
			claimed[s] = gi
		}
		b.groups[gi].shards = m.Shards
		b.groups[gi].generation.Store(m.Generation)
	}
	for s := 0; s < total; s++ {
		if _, ok := claimed[s]; !ok {
			return fmt.Errorf("broker: shard %d of %d is served by no group", s, total)
		}
	}
	b.totalShards = total
	b.files = files
	b.positional = positional
	return nil
}

// Watch polls every replica's /healthz every interval until ctx is done,
// rotating replicas out of (and back into) request candidacy. Transitions
// are logged.
func (b *Broker) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			b.healthSweep(ctx, interval)
		}
	}
}

// healthSweep probes every replica once, concurrently.
func (b *Broker) healthSweep(ctx context.Context, budget time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var wg sync.WaitGroup
	for _, g := range b.groups {
		for _, r := range g.replicas {
			wg.Add(1)
			go func(r *replica) {
				defer wg.Done()
				ok := b.probeHealth(ctx, r.url)
				if was := r.healthy.Swap(ok); was != ok {
					if ok {
						b.logf("broker: %s healthy again", r.url)
					} else {
						b.logf("broker: %s marked unhealthy", r.url)
					}
				}
			}(r)
		}
	}
	wg.Wait()
}

// candidates returns the group's replicas in attempt order for one
// request: healthy replicas first, rotated by the round-robin cursor,
// then unhealthy ones as a last resort (a "down" replica may have just
// recovered, and trying it beats failing the request).
func (g *group) candidates() []*replica {
	n := len(g.replicas)
	start := int(g.rr.Add(1)) % n
	healthy := make([]*replica, 0, n)
	var down []*replica
	for i := 0; i < n; i++ {
		r := g.replicas[(start+i)%n]
		if r.healthy.Load() {
			healthy = append(healthy, r)
		} else {
			down = append(down, r)
		}
	}
	return append(healthy, down...)
}

// policy turns one summary of a group's recent latencies into the two
// delays a request against it runs under: how long the primary attempt
// runs before the same request is hedged to the next replica, and how long
// any attempt that still has a replica to fail over to may take —
// generously above the recent p95 so normal variance never trips it, but
// far enough inside the request deadline that a hung worker leaves time to
// fail over. A cold window (ok false) hedges after defaultHedgeDelay and
// gives an attempt the full request budget.
func (b *Broker) policy(s timing.Summary, ok bool) (hedgeAfter, attemptTimeout time.Duration) {
	hedgeAfter, attemptTimeout = defaultHedgeDelay, b.door.Timeout
	if ok {
		hedgeAfter = s.P95
		attemptTimeout = min(max(8*s.P95, 50*time.Millisecond), b.door.Timeout)
	}
	if b.hedge > 0 {
		hedgeAfter = b.hedge
	} else if hedgeAfter < MinHedgeDelay {
		hedgeAfter = MinHedgeDelay
	}
	return hedgeAfter, attemptTimeout
}
