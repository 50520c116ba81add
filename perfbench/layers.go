package main

// layerUnits lists every per-layer metric with its unit. A run prints
// all of them; a layer the workload does not reach through its public
// calls reads 0.
var layerUnits = map[string]string{
	"core.analyze_s":           "s",
	"core.plan_s":              "s",
	"core.plan_candidates":     "count",
	"core.plan_alloc_mb":       "MB",
	"core.exec_s":              "s",
	"core.exec_alloc_mb":       "MB",
	"core.max_concurrent_jobs": "count",
	"core.replanned_jobs":      "count",
	"core.merge_s":             "s",
	"core.merge_steps":         "count",
	"mr.map_s":                 "s",
	"mr.reduce_s":              "s",
	"mr.assemble_s":            "s",
	"mr.combinations_checked":  "count",
	"mr.probe_yield":           "rows/check",
	"mr.shuffle_gb":            "GB",
	"mr.balance_ratio_max":     "ratio",
	"mr.attempt_yield":         "tasks/attempt",
	"mr.spill_mb":              "MB",
	"mr.spill_runs":            "count",
	"mr.peak_live_mb":          "MB",
	"dfs.cache_hit_ratio":      "ratio",
	"server.overhead_ms_p50":   "ms",
	"server.plan_ms_p99":       "ms",
	"server.exec_ms_p50":       "ms",
	"server.cache_hit_ratio":   "ratio",
	"server.failed":            "count",
	"schedule.budget_mean":     "units",
	"latency_p99_ms":           "ms",
	"obs.trace_overhead_ratio": "ratio",
	"query.parse_share":        "%",
	"core.plan_share":          "%",
	"core.exec_share":          "%",
	"core.merge_share":         "%",
	"mr.map_share":             "%",
	"mr.reduce_share":          "%",
	"mr.assemble_share":        "%",
	"server.request_share":     "%",
}

func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	return m
}
