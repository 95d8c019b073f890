package core

import (
	"hlfi/internal/obs"
	"hlfi/internal/telemetry"
)

// BindMetrics makes m's read-at-scrape series read their owners on
// every render: the cell, trace and adaptive series from the aggregator
// agg (so /metrics cell counts equal /statusz), the replay and engine
// series from replay's stats and compiled's cache (a nil config reads
// 0). Nil m is a no-op.
func BindMetrics(m *obs.Metrics, agg *telemetry.Aggregator, replay *ReplayConfig, compiled *CompiledConfig) {
	if m == nil {
		return
	}
	stats := &telemetry.ReplayStats{}
	if replay != nil && replay.Stats != nil {
		stats = replay.Stats
	}
	m.Registry().SetCollector(func() {
		st, plan := agg.Status(), agg.Plan()
		m.CellsPlanned.Set(int64(st.CellsPlanned))
		m.CellsDone.Store(uint64(st.CellsDone))
		m.CellsSkipped.Store(uint64(st.CellsSkipped + st.CellsDeadline))
		m.CellsResumed.Store(uint64(st.CellsResumed))
		if st.Shard != "" {
			m.SetShard(st.Shard)
		}
		m.TraceAttempts.Store(uint64(st.Traces))
		m.TraceSpans.Store(uint64(agg.Spans()))
		m.AdaptiveConverged.Store(uint64(plan.AdaptiveConvergedCells))
		m.AdaptiveExtended.Store(uint64(plan.AdaptiveExtendedCells))
		m.AdaptiveSaved.Store(uint64(plan.AdaptiveSaved))
		m.AdaptiveGranted.Store(uint64(plan.AdaptiveGranted))
		m.ReplayHits.Store(stats.Hits())
		m.ReplayMisses.Store(stats.Misses())
		m.InstrsSkipped.Store(stats.SkippedInstrs())
		m.InstrsReplayed.Store(stats.ReplayedInstrs())
		m.ReplayConverged.Store(stats.Converged())
		m.ReplayCycled.Store(stats.Cycled())
		m.SnapshotCacheBytes.SetUint64(stats.CacheBytes())
		m.SnapshotCacheSnapshots.SetUint64(stats.CacheEntries())
		m.SnapshotEvictions.Store(stats.Evictions())
		m.RestoreInstrs.Store(stats.RestoreCounts(), float64(stats.ReplayedInstrs()))
		m.CompiledAttempts.Store(stats.CompiledAttempts())
		m.CompiledFallbacks.Store(compiled.Fallbacks())
	})
}
