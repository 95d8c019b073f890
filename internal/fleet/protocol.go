// Package fleet turns the shard-and-merge campaign machinery into a
// long-running, fault-tolerant campaign service: an HTTP coordinator
// that expands one study into its canonical cell list and hands cells
// out as leases, plus a worker loop that executes leased cells and
// streams their checkpoint records back.
//
// The protocol leans entirely on the determinism the core already
// guarantees: every cell derives its seed via core.CellSeed from the
// study seed and its own identity, never from scheduling, so a cell
// produces identical records no matter which worker runs it, how often
// it is retried after a lease expires, or how many duplicate
// completions arrive. That is what makes the fault-tolerance cheap —
// expiry, retry, and dedupe are pure bookkeeping, and the rendered
// report stays byte-identical to the single-process run.
//
// Wire format: JSON request/response bodies over plain HTTP.
//
//	POST /lease      LeaseRequest     -> LeaseResponse
//	POST /heartbeat  HeartbeatRequest -> HeartbeatResponse
//	POST /complete   CompleteRequest  -> CompleteResponse
//	POST /drain      (empty)          -> DrainResponse
//	GET  /metrics, /statusz, /tracez, /debug/pprof/   (internal/obs)
package fleet

import (
	"hlfi/internal/core"
	"hlfi/internal/obs/trace"
)

// StatusLease, StatusWait, and StatusDone are the LeaseResponse states.
const (
	// StatusLease: a cell lease was granted; execute it and report back.
	StatusLease = "lease"
	// StatusWait: no cell is currently grantable (all leased, or backing
	// off before a retry). Poll again after RetryAfterMS.
	StatusWait = "wait"
	// StatusDone: the study is complete or the coordinator is draining;
	// the worker should exit.
	StatusDone = "done"
)

// LeaseRequest asks the coordinator for one cell lease.
type LeaseRequest struct {
	// Worker is the worker's self-chosen stable name, used for the
	// fleet dashboard and lease accounting.
	Worker string `json:"worker"`
}

// Lease is one granted campaign cell: everything a worker needs to
// reproduce the exact records the single-process study would have
// produced for this cell.
type Lease struct {
	// ID is the lease identity. Heartbeats and completions quote it; a
	// requeued cell gets a fresh lease with a fresh ID.
	ID uint64 `json:"id"`

	// CellKey is the cell's identity, encoded as a checkpoint line
	// encodes it: "variant" appears on non-paper cells only.
	core.CellKey

	// N and Seed pin the cell's work: N activated injections, seeded
	// with the position-independent per-cell seed (core.CellSeed), so
	// the coordinator remains the single place seed derivation happens.
	N    int   `json:"n"`
	Seed int64 `json:"seed"`

	// Campaign fault-tolerance knobs, inherited from the study.
	SimFaultLimit  int   `json:"simFaultLimit,omitempty"`
	CellDeadlineMS int64 `json:"cellDeadlineMs,omitempty"`

	// Adaptive, when non-empty, is the study's adaptive-sampling
	// signature (adaptive.Config.Signature); the worker arms the same
	// early-stopping rule so its records match the single-process run.
	// AdaptiveBase carries the round-1 baseline for extension leases
	// (N > AdaptiveBase): the worker re-runs the cell to the extended
	// target, capturing the round-1 snapshot at the baseline crossing.
	Adaptive     string `json:"adaptive,omitempty"`
	AdaptiveBase int    `json:"adaptiveBase,omitempty"`

	// TTLMS is the lease deadline interval: the worker must heartbeat
	// (or complete) within this long or the coordinator expires the
	// lease and requeues the cell.
	TTLMS int64 `json:"ttlMs"`

	// Grant counts how many times this cell has been leased (1 on the
	// first grant), so workers can log retries distinctly.
	Grant int `json:"grant"`

	// Trace and Span propagate the coordinator's trace context: Trace is
	// the study's trace ID, Span the coordinator-side lease span this
	// grant opened. The worker parents its execution spans under them so
	// the merged timeline connects grants to the work they caused. Both
	// are zero when tracing is off.
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status string `json:"status"` // StatusLease | StatusWait | StatusDone
	// RetryAfterMS accompanies StatusWait: how long to wait before
	// polling again.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
	// Lease accompanies StatusLease.
	Lease *Lease `json:"lease,omitempty"`
}

// HeartbeatRequest extends a lease's deadline while its cell runs.
// Observability piggybacks on it: Spans carries the worker's finished
// span batch since the last report, Metrics its cumulative counter
// snapshot. Both are optional and never influence lease bookkeeping.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`

	Spans   []trace.Record  `json:"spans,omitempty"`
	Metrics *WorkerSnapshot `json:"metrics,omitempty"`
}

// WorkerSnapshot is a worker's compact cumulative metrics snapshot,
// piggybacked on heartbeats and completions. Values are totals since
// the worker started, so the coordinator republishes them absolutely
// (obs.Counter.Store) — lost or reordered snapshots cannot double-count.
type WorkerSnapshot struct {
	Cells     uint64 `json:"cells,omitempty"`
	Attempts  uint64 `json:"attempts,omitempty"`
	Activated uint64 `json:"activated,omitempty"`
	SimFaults uint64 `json:"simFaults,omitempty"`
	Builds    uint64 `json:"builds,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. OK is false when the
// lease is no longer live (expired and requeued, or already completed):
// the worker's in-flight result is not wasted — a completion for a
// still-unresolved cell is accepted from any lease, and a resolved
// cell's duplicate is deduped — but the worker learns it lost the race.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest reports the outcome of one leased cell. Exactly one
// of Result, Skip, or Failure is set: Result and Skip resolve the cell
// and carry the same records a checkpoint line stores, so streaming a
// completion is streaming a checkpoint line; Failure is a hard
// worker-side error that fails the lease so the coordinator requeues
// the cell.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`

	// CellKey repeats the lease's cell identity, so completions from
	// expired leases (whose lease record the coordinator already
	// dropped) can still resolve their cell.
	core.CellKey

	Result  *core.CellRecord     `json:"result,omitempty"`
	Skip    *core.CheckpointSkip `json:"skip,omitempty"`
	Failure string               `json:"failure,omitempty"`

	// Observability piggyback, same contract as HeartbeatRequest.
	Spans   []trace.Record  `json:"spans,omitempty"`
	Metrics *WorkerSnapshot `json:"metrics,omitempty"`
}

// CompleteResponse acknowledges a completion. Duplicate marks a
// completion for a cell that already had a result; determinism makes
// the duplicate byte-identical, so it is dropped without error.
type CompleteResponse struct {
	OK        bool `json:"ok"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// DrainResponse acknowledges a drain request: the coordinator stops
// granting leases (in-flight leases may still complete) and reports how
// many cells were still unresolved when the drain began.
type DrainResponse struct {
	OK         bool `json:"ok"`
	Unresolved int  `json:"unresolved"`
}
