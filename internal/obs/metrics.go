package obs

// Bucket layouts. Attempt latencies run from tens of microseconds (a
// snapshot-replayed attempt on a small workload) to seconds (a
// hang-budget exhaustion); restore distance is the residual tail
// replayed after a snapshot restore, in dynamic instructions; cell
// durations span quick probe cells to multi-minute N=1000 cells.
var (
	AttemptSecondsBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// An array: the replay stats that own this distribution size by it.
	RestoreInstrsBuckets = [...]float64{
		1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 5e6, 1e7, 5e7,
	}
	CellSecondsBuckets = []float64{
		0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600,
	}
)

// Metrics is the instrument set of a fault-injection study — every
// series the /metrics endpoint exposes, pre-registered so hot paths
// never touch the registry. A nil *Metrics is the disabled state;
// instrumented code guards updates with a single nil check and every
// instrument method is itself nil-safe.
// Only the attempt series, CellsInFlight and the latency histograms are
// pushed; the warehouse store counts into its own three counters, and
// every other series is stored from its owner when scraped
// (core.BindMetrics).
type Metrics struct {
	reg *Registry

	// Attempt-level counters (updated from the campaign loops).
	Attempts  *Counter
	Activated *Counter
	SimFaults *Counter
	Benign    *Counter
	SDC       *Counter
	Crash     *Counter
	Hang      *Counter
	NotAct    *Counter

	// Cell-level progress (read from the telemetry aggregator).
	CellsPlanned  *Gauge
	CellsInFlight *Gauge
	CellsDone     *Counter
	CellsSkipped  *Counter
	CellsResumed  *Counter

	// Snapshot-replay accounting (read from the replay stats).
	ReplayHits             *Counter
	ReplayMisses           *Counter
	InstrsSkipped          *Counter
	InstrsReplayed         *Counter
	ReplayConverged        *Counter
	ReplayCycled           *Counter
	SnapshotCacheBytes     *Gauge
	SnapshotCacheSnapshots *Gauge
	SnapshotEvictions      *Counter

	// Compiled-engine accounting (read from the replay stats and the
	// compiled-program cache).
	CompiledAttempts  *Counter
	CompiledFallbacks *Counter

	// Fault-propagation tracing (read from the telemetry aggregator).
	TraceAttempts *Counter
	TraceSpans    *Counter

	// Adaptive-sampling accounting (read from the aggregator's plan).
	AdaptiveConverged *Counter
	AdaptiveExtended  *Counter
	AdaptiveSaved     *Counter
	AdaptiveGranted   *Counter

	// Result-warehouse accounting (updated by the warehouse store the
	// CLI wires these into: lookup hits/misses and completed stores).
	WarehouseHits   *Counter
	WarehouseMisses *Counter
	WarehouseStores *Counter

	// Distributions.
	AttemptSeconds *Histogram
	RestoreInstrs  *Histogram
	CellSeconds    *Histogram
}

// New builds the study instrument set over a fresh registry.
func New() *Metrics {
	r := NewRegistry()
	return &Metrics{
		reg: r,

		Attempts:  r.Counter("hlfi_attempts_total", "Injection attempts drawn."),
		Activated: r.Counter("hlfi_activated_total", "Attempts whose fault activated (read before overwrite)."),
		SimFaults: r.Counter("hlfi_sim_faults_total", "Contained simulator panics."),
		Benign:    r.Counter(`hlfi_outcomes_total{outcome="benign"}`, "Attempt outcomes by class."),
		SDC:       r.Counter(`hlfi_outcomes_total{outcome="sdc"}`, "Attempt outcomes by class."),
		Crash:     r.Counter(`hlfi_outcomes_total{outcome="crash"}`, "Attempt outcomes by class."),
		Hang:      r.Counter(`hlfi_outcomes_total{outcome="hang"}`, "Attempt outcomes by class."),
		NotAct:    r.Counter(`hlfi_outcomes_total{outcome="not-activated"}`, "Attempt outcomes by class."),

		CellsPlanned:  r.Gauge("hlfi_cells_planned", "Campaign cells in the study plan."),
		CellsInFlight: r.Gauge("hlfi_cells_in_flight", "Campaign cells currently executing."),
		CellsDone:     r.Counter("hlfi_cells_done_total", "Campaign cells completed."),
		CellsSkipped:  r.Counter("hlfi_cells_skipped_total", "Campaign cells soft-skipped (no candidates, not activated, deadline)."),
		CellsResumed:  r.Counter("hlfi_cells_resumed_total", "Campaign cells restored from a checkpoint."),

		ReplayHits:             r.Counter("hlfi_replay_hits_total", "Attempts fast-forwarded from a snapshot."),
		ReplayMisses:           r.Counter("hlfi_replay_misses_total", "Attempts executed from instruction zero with replay armed."),
		InstrsSkipped:          r.Counter("hlfi_replay_instrs_skipped_total", "Dynamic instructions skipped by snapshot restores."),
		InstrsReplayed:         r.Counter("hlfi_replay_instrs_replayed_total", "Dynamic instructions replayed after snapshot restores."),
		ReplayConverged:        r.Counter("hlfi_replay_converged_total", "Attempts a compiled engine ended where their state rejoined the golden run."),
		ReplayCycled:           r.Counter("hlfi_replay_cycled_total", "Attempts a compiled engine ended as hangs when their state repeated."),
		SnapshotCacheBytes:     r.Gauge("hlfi_snapshot_cache_bytes", "Accounted bytes held by the snapshot cache."),
		SnapshotCacheSnapshots: r.Gauge("hlfi_snapshot_cache_snapshots", "Snapshots held by the snapshot cache."),
		SnapshotEvictions:      r.Counter("hlfi_snapshot_evictions_total", "Snapshot cache entries evicted under the memory budget."),

		CompiledAttempts:  r.Counter("hlfi_compiled_attempts_total", "Attempts executed by a compiled engine instead of the interpreter."),
		CompiledFallbacks: r.Counter("hlfi_compiled_fallbacks_total", "Programs that failed to compile and fell back to the interpreter."),

		TraceAttempts: r.Counter("hlfi_trace_attempts_total", "Attempts that recorded a fault-propagation trace."),
		TraceSpans:    r.Counter("hlfi_trace_spans_total", "Spans recorded across all attempt traces."),

		AdaptiveConverged: r.Counter("hlfi_adaptive_cells_converged_total", "Cells the early-stopping rule ended before their activation target."),
		AdaptiveExtended:  r.Counter("hlfi_adaptive_cells_extended_total", "Cells granted extra budget by the round-2 reallocation plan."),
		AdaptiveSaved:     r.Counter("hlfi_adaptive_saved_activated_total", "Activated-injection budget donated by early-stopped cells."),
		AdaptiveGranted:   r.Counter("hlfi_adaptive_granted_activated_total", "Activated-injection budget granted to extended cells."),

		WarehouseHits:   r.Counter("hlfi_warehouse_hits_total", "Cells resolved from the content-addressed result warehouse."),
		WarehouseMisses: r.Counter("hlfi_warehouse_misses_total", "Warehouse lookups that missed (cell executed)."),
		WarehouseStores: r.Counter("hlfi_warehouse_stores_total", "Cell records persisted to the result warehouse."),

		AttemptSeconds: r.Histogram("hlfi_attempt_seconds", "Injection attempt latency in seconds.", AttemptSecondsBuckets),
		RestoreInstrs:  r.Histogram("hlfi_replay_restore_instrs", "Replay restore distance: dynamic instructions replayed after the snapshot restore of one attempt.", RestoreInstrsBuckets[:]),
		CellSeconds:    r.Histogram("hlfi_cell_seconds", "Campaign cell duration (scan + injection loop) in seconds.", CellSecondsBuckets),
	}
}

// SetShard publishes the worker's shard spec as an info-style series
// (hlfi_shard_info{shard="1/3"} 1), so scrapes from a fleet of shard
// workers stay distinguishable after aggregation. Nil-safe; the series
// exists only on sharded runs.
func (m *Metrics) SetShard(spec string) {
	if m == nil {
		return
	}
	m.reg.Gauge(Label("hlfi_shard_info", "shard", spec),
		"Shard spec of this worker (info metric; value is always 1).").Set(1)
}

// Registry exposes the backing registry (nil on a nil Metrics).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Outcome maps a fault outcome's string form to its counter, nil (a
// no-op counter) for unknown names or a nil Metrics.
func (m *Metrics) Outcome(name string) *Counter {
	if m == nil {
		return nil
	}
	switch name {
	case "benign":
		return m.Benign
	case "sdc":
		return m.SDC
	case "crash":
		return m.Crash
	case "hang":
		return m.Hang
	case "not-activated":
		return m.NotAct
	}
	return nil
}
