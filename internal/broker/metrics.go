package broker

import (
	"strconv"
	"time"

	"desksearch/internal/metrics"
)

// brokerMetrics is the broker's /metrics surface. As in internal/server,
// counters the broker already keeps as atomics — queries, hedges,
// failovers — are exposed as function-backed metrics sampled at scrape
// time; only the per-endpoint request/latency instruments write anew.
type brokerMetrics struct {
	reg      *metrics.Registry
	requests *metrics.CounterVec // by endpoint and outcome
	latency  map[string]*metrics.Histogram
}

// initMetrics builds the registry over the broker's existing state. It
// runs after New has populated b.groups, so the per-group gauges can
// close over the final topology.
func (b *Broker) initMetrics() {
	reg := metrics.NewRegistry()
	m := &brokerMetrics{
		reg:      reg,
		requests: reg.NewCounterVec("ds_requests_total", "HTTP requests by endpoint and outcome.", "endpoint", "outcome"),
		latency:  make(map[string]*metrics.Histogram),
	}
	for _, ep := range []string{"search", "suggest"} {
		m.latency[ep] = reg.NewHistogram(
			"ds_"+ep+"_duration_seconds",
			"Front-door handling time of /"+ep+" requests.",
			nil,
		)
	}

	reg.NewCounterFunc("ds_queries_total", "Queries accepted across /search and /suggest.",
		func() float64 { return float64(b.queries.Load()) })
	reg.NewCounterFunc("ds_query_errors_total", "Queries that failed scatter-gather.",
		func() float64 { return float64(b.queryErrors.Load()) })
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

	b.metrics = m
}

// observeRequest records one finished front-door request.
func (m *brokerMetrics) observeRequest(endpoint, outcome string, start time.Time) {
	m.requests.With(endpoint, outcome).Inc()
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(time.Since(start).Seconds())
	}
}
