package fleet

import "hlfi/internal/obs"

// Metrics are the coordinator's fleet instruments, registered on an
// internal/obs registry so the standard /metrics endpoint scrapes them
// in Prometheus text format alongside nothing else — the coordinator
// runs no campaigns itself, so fleet counters are its whole story.
type Metrics struct {
	reg *obs.Registry

	// Leases counts granted leases; Expiries leases whose worker went
	// silent past the deadline; Retries cells put back in the queue
	// (after an expiry or a reported failure); Duplicates completions
	// dropped because their cell was already resolved; Heartbeats
	// accepted lease extensions.
	Leases     *obs.Counter
	Expiries   *obs.Counter
	Retries    *obs.Counter
	Duplicates *obs.Counter
	Heartbeats *obs.Counter

	// CellsDone / CellsSkipped / CellsDegraded partition resolved cells:
	// completed results, worker-reported soft skips, and cells that ran
	// out of retry budget (degraded to a fleet-failed skip record).
	CellsDone     *obs.Counter
	CellsSkipped  *obs.Counter
	CellsDegraded *obs.Counter

	// AdaptiveExtensions counts cells the adaptive reallocation plan
	// reopened as extension leases.
	AdaptiveExtensions *obs.Counter

	// Warehouse accounting: cells resolved from the content-addressed
	// result warehouse without granting a lease (hits), lookups that
	// missed (the cell was leased and executed), and records persisted
	// after resolution. Wired into the warehouse store by the serving
	// CLI.
	WarehouseHits   *obs.Counter
	WarehouseMisses *obs.Counter
	WarehouseStores *obs.Counter

	// QueueDepth is the number of unleased, unresolved cells;
	// ActiveLeases the leases currently live; WorkersLive the workers
	// seen (lease, heartbeat, or completion) within two lease TTLs;
	// StudyDone 1 once every cell is resolved. The coordinator stores
	// all four from its own tables when the registry is rendered.
	QueueDepth   *obs.Gauge
	ActiveLeases *obs.Gauge
	WorkersLive  *obs.Gauge
	StudyDone    *obs.Gauge
}

// NewMetrics builds the fleet instrument set on a fresh registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		Leases: reg.Counter("hlfi_fleet_leases_total",
			"Cell leases granted to workers."),
		Expiries: reg.Counter("hlfi_fleet_lease_expiries_total",
			"Leases expired after their worker went silent past the deadline."),
		Retries: reg.Counter("hlfi_fleet_retries_total",
			"Cells requeued after a lease expiry or a reported worker failure."),
		Duplicates: reg.Counter("hlfi_fleet_duplicate_completions_total",
			"Completions dropped because the cell was already resolved (deterministic cells make duplicates benign)."),
		Heartbeats: reg.Counter("hlfi_fleet_heartbeats_total",
			"Accepted lease heartbeat extensions."),
		CellsDone: reg.Counter("hlfi_fleet_cells_done_total",
			"Cells resolved with a completed result."),
		CellsSkipped: reg.Counter("hlfi_fleet_cells_skipped_total",
			"Cells resolved with a worker-reported soft skip."),
		CellsDegraded: reg.Counter("hlfi_fleet_cells_degraded_total",
			"Cells degraded to a fleet-failed skip after exhausting their retry budget."),
		AdaptiveExtensions: reg.Counter("hlfi_fleet_adaptive_extensions_total",
			"Cells the adaptive reallocation plan reopened as extension leases."),
		WarehouseHits: reg.Counter("hlfi_warehouse_hits_total",
			"Cells resolved from the content-addressed result warehouse without a lease."),
		WarehouseMisses: reg.Counter("hlfi_warehouse_misses_total",
			"Warehouse lookups that missed (cell leased and executed)."),
		WarehouseStores: reg.Counter("hlfi_warehouse_stores_total",
			"Cell records persisted to the result warehouse."),
		QueueDepth: reg.Gauge("hlfi_fleet_queue_depth",
			"Unresolved cells not currently leased."),
		ActiveLeases: reg.Gauge("hlfi_fleet_active_leases",
			"Leases currently live."),
		WorkersLive: reg.Gauge("hlfi_fleet_workers_live",
			"Workers seen within the liveness window."),
		StudyDone: reg.Gauge("hlfi_fleet_study_done",
			"1 once every cell of the study is resolved."),
	}
}

// Registry exposes the underlying registry for the /metrics endpoint.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// LeaseFor returns the per-worker grant counter — the labeled
// companion of Leases (hlfi_fleet_leases_total{worker="w1"}), created
// on first grant. Label values are escaped by obs.Label, so hostile
// worker names cannot corrupt the exposition. The unlabeled aggregate
// series keeps its exact name: '{' sorts after every identifier byte,
// so labeled children render directly below it in the same family.
func (m *Metrics) LeaseFor(worker string) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter(obs.Label("hlfi_fleet_leases_total", "worker", worker),
		"Cell leases granted to workers.")
}

// HeartbeatFor returns the per-worker heartbeat counter, the labeled
// companion of Heartbeats.
func (m *Metrics) HeartbeatFor(worker string) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter(obs.Label("hlfi_fleet_heartbeats_total", "worker", worker),
		"Accepted lease heartbeat extensions.")
}

// ApplySnapshot republishes one worker's cumulative metrics snapshot as
// the federated hlfi_fleet_worker_* series. Snapshots carry absolute
// totals, so each value is stored, not added — a dropped heartbeat
// costs staleness, never drift.
func (m *Metrics) ApplySnapshot(worker string, s *WorkerSnapshot) {
	if m == nil || s == nil {
		return
	}
	store := func(name, help string, v uint64) {
		m.reg.Counter(obs.Label(name, "worker", worker), help).Store(v)
	}
	store("hlfi_fleet_worker_cells_total",
		"Cells executed, as last reported by each worker.", s.Cells)
	store("hlfi_fleet_worker_attempts_total",
		"Injection attempts drawn, as last reported by each worker.", s.Attempts)
	store("hlfi_fleet_worker_activated_total",
		"Activated injections, as last reported by each worker.", s.Activated)
	store("hlfi_fleet_worker_sim_faults_total",
		"Contained simulator panics, as last reported by each worker.", s.SimFaults)
	store("hlfi_fleet_worker_builds_total",
		"Benchmark program builds, as last reported by each worker.", s.Builds)
}
