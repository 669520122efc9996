package server

import "time"

// registerMetrics adds the node's own families to the /metrics registry,
// after the front door's (requests, latency histograms, queries, query
// errors). State other subsystems own (block-cache bytes, the catalog
// generation) is exposed as function-backed metrics sampled at scrape
// time, so there is exactly one source of truth per number.
func (s *Server) registerMetrics() {
	reg := s.reg
	reg.NewCounterFunc("ds_reloads_total", "Completed reloads (incremental and full).",
		func() float64 { return float64(s.reloads.Load()) })
	reg.NewGaugeFunc("ds_generation", "Current catalog generation.",
		func() float64 { return float64(s.cat.Generation()) })
	reg.NewGaugeFunc("ds_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// The block cache exists only for lazy catalogs; a heap catalog
	// samples as zero rather than dropping the family, so dashboards keep
	// a stable series set across open modes.
	reg.NewGaugeFunc("ds_block_cache_used_bytes", "Lazy posting-block cache resident bytes (0 for heap catalogs).",
		func() float64 {
			_, used, ok := s.cat.BlockCache()
			if !ok {
				return 0
			}
			return float64(used)
		})
	reg.NewGaugeFunc("ds_block_cache_budget_bytes", "Lazy posting-block cache byte budget (0 for heap catalogs).",
		func() float64 {
			budget, _, ok := s.cat.BlockCache()
			if !ok {
				return 0
			}
			return float64(budget)
		})
	reg.NewCounterFunc("ds_segment_corruptions_total", "Posting-block reads of a lazy catalog that failed verification; each failed its query (0 for heap catalogs).",
		func() float64 { return float64(s.cat.SegmentCorruptions()) })
}
