package broker

import (
	"strconv"
	"time"
)

// registerMetrics adds the broker's own families to the /metrics
// registry, after the front door's (requests, latency histograms, queries,
// query errors). Counters the broker already keeps as atomics are exposed
// as function-backed metrics sampled at scrape time. It runs after New has
// populated b.groups, so the per-group gauges can close over the final
// topology.
func (b *Broker) registerMetrics() {
	reg := b.reg
	reg.NewCounterFunc("ds_hedges_total", "Speculative duplicate requests issued against straggling replicas.",
		func() float64 { return float64(b.hedges.Load()) })
	reg.NewCounterFunc("ds_hedge_wins_total", "Hedged requests that answered before the primary.",
		func() float64 { return float64(b.hedgeWins.Load()) })
	reg.NewCounterFunc("ds_failovers_total", "Replica attempts restarted on another replica after a failure.",
		func() float64 { return float64(b.failovers.Load()) })
	reg.NewCounterFunc("ds_df_hits_total", "Multi-group BM25 queries scattered at once with statistics from the df table.",
		func() float64 { return float64(b.dfHits.Load()) })
	reg.NewCounterFunc("ds_df_misses_total", "Multi-group BM25 queries that asked the workers for statistics first.",
		func() float64 { return float64(b.dfMisses.Load()) })
	reg.NewCounterFunc("ds_df_stale_total", "Scatters re-issued because the workers' own statistics contradicted the ones sent.",
		func() float64 { return float64(b.dfStale.Load()) })
	reg.NewGaugeFunc("ds_uptime_seconds", "Seconds since the broker started.",
		func() float64 { return time.Since(b.start).Seconds() })

	for gi, g := range b.groups {
		g := g
		label := strconv.Itoa(gi)
		reg.NewGaugeFunc("ds_group_"+label+"_healthy_replicas",
			"Replicas of group "+label+" currently passing health checks.",
			func() float64 {
				n := 0
				for _, r := range g.replicas {
					if r.healthy.Load() {
						n++
					}
				}
				return float64(n)
			})
		reg.NewGaugeFunc("ds_group_"+label+"_generation",
			"Last catalog generation observed from group "+label+".",
			func() float64 { return float64(g.generation.Load()) })
	}

}
