package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/core"
	"hlfi/internal/obs/trace"
	"hlfi/internal/telemetry"
	"hlfi/internal/warehouse"
)

// Config configures a Coordinator for one study submission.
type Config struct {
	// Programs, N, Seed, and Cells define the study exactly as
	// core.StudyConfig does, and the cell list is the work queue: empty
	// means core.CanonicalCells(Programs, nil).
	Programs []*core.Program
	N        int
	Seed     int64
	Cells    []core.CellKey

	// SimFaultLimit and CellDeadline are forwarded to workers inside
	// each lease (per-cell campaign fault tolerance, same as the local
	// study path).
	SimFaultLimit int
	CellDeadline  time.Duration

	// LeaseTTL is the heartbeat deadline: a lease not extended within
	// this long is expired and its cell requeued (default 30s).
	LeaseTTL time.Duration
	// MaxRetries bounds re-grants per cell: after 1+MaxRetries grants
	// all end in expiry or failure, the cell degrades to a typed
	// fleet-failed skip record instead of blocking the study forever
	// (default 3).
	MaxRetries int
	// Backoff is the base requeue delay, doubled per retry up to
	// BackoffCap, with jitter (defaults 250ms / 5s).
	Backoff    time.Duration
	BackoffCap time.Duration
	// RetryAfter is the poll delay handed to workers when no cell is
	// grantable (default 200ms).
	RetryAfter time.Duration
	// JitterSeed seeds requeue jitter (0: fixed default). Jitter shapes
	// scheduling only — determinism of results never depends on it.
	JitterSeed int64

	// Adaptive, when non-nil, arms adaptive sampling: workers stop cells
	// early once converged, and when every cell has its round-1 record
	// the coordinator computes the reallocation plan (a pure function of
	// the round-1 records in canonical order — identical to the
	// single-process plan) and reopens the widest cells as extension
	// leases before declaring the study done.
	Adaptive *adaptive.Config

	// Checkpoint, Resume and Warehouse are the study's
	// core.StudyConfig fields of the same names, and every cell resolves
	// through the same core.Resolver rule a local study uses: resumed
	// and warehoused cells resolve at construction (warehoused
	// extensions at plan time) without a lease, and each resolution is
	// written and announced as a local study writes and announces it.
	// The render path loads the checkpoint back through the typed
	// checkpoint validation. A failed append detaches the writer (it is
	// sticky-failed) and fails the lease, so the cell is requeued and
	// re-resolved in memory.
	Checkpoint *core.CheckpointWriter
	Resume     *core.CheckpointState
	Warehouse  *warehouse.StudyCache

	// Events, when non-nil, receives the cell events of the resolution
	// rule and the fleet_* events, in coordinator decision order.
	Events telemetry.Recorder
	// Metrics receives fleet instruments (a fresh set is created when
	// nil).
	Metrics *Metrics
	// Trace, when non-nil, records the study timeline: a campaign root
	// span, per-cell cell/wait/lease/retry/extension spans, and the
	// worker exec spans ingested from heartbeat and completion
	// piggybacks. Spans consume no randomness and touch no campaign
	// state, so results are byte-identical with tracing on or off; nil
	// is the zero-cost disabled path.
	Trace *trace.Recorder
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Cell lifecycle states.
const (
	cellPending  = iota // waiting in the queue (possibly backing off)
	cellLeased          // granted to a worker, lease live
	cellDone            // resolved with a result
	cellSkipped         // resolved with a soft skip
	cellDegraded        // resolved with a fleet-failed skip (retry budget exhausted)
)

// cellState is the coordinator's bookkeeping for one canonical cell.
type cellState struct {
	key        core.CellKey
	seed       int64
	status     int
	grants     int       // leases granted so far
	eligibleAt time.Time // backoff gate while pending
	lease      uint64    // live lease ID while leased
	result     *core.CellResult
	skip       *core.CheckpointSkip
	// target is the activation target the next lease carries (the study
	// baseline, raised by the adaptive plan for extension leases).
	target int
	// prior keeps the round-1 result while an extension lease is in
	// flight: an abandoned extension keeps it instead of losing the cell.
	prior *core.CellResult

	// Trace spans (all zero-value no-ops when tracing is off): cellSpan
	// covers the cell's whole life (re-pointed at an extension span when
	// the adaptive plan reopens it), gapSpan the current queue wait or
	// retry backoff, leaseSpan the live grant.
	cellSpan  trace.Span
	gapSpan   trace.Span
	leaseSpan trace.Span
}

// leaseInfo is one live lease.
type leaseInfo struct {
	cell     *cellState
	worker   string
	deadline time.Time
}

// Coordinator owns one study's cell queue, lease table, and resolved
// state. All HTTP handlers and the expiry sweep share one mutex; every
// critical section is bookkeeping-only (no campaign ever runs under
// it).
type Coordinator struct {
	cfg Config
	// rule is the cell resolution rule; a write failure detaches its
	// checkpoint writer.
	rule core.Resolver

	mu        sync.Mutex
	cells     []*cellState
	byKey     map[core.CellKey]*cellState
	leases    map[uint64]*leaseInfo
	nextLease uint64
	draining  bool
	resolved  int
	workers   map[string]time.Time // last contact
	rng       *rand.Rand
	planDone  bool // adaptive reallocation plan already applied

	root trace.Span // study root span (no-op when tracing is off)

	done      chan struct{} // closed once every cell is resolved
	stop      chan struct{}
	sweeperWG sync.WaitGroup
}

// New builds a coordinator for one study: the study's cell list
// becomes the queue, each cell carrying its position-independent seed.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("fleet: no programs")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("fleet: n must be positive")
	}
	keys, err := core.StudyCells(cfg.Programs, cfg.Cells)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 200 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}

	c := &Coordinator{
		cfg:     cfg,
		byKey:   make(map[core.CellKey]*cellState, len(keys)),
		leases:  make(map[uint64]*leaseInfo),
		workers: make(map[string]time.Time),
		rng:     rand.New(rand.NewSource(seed)),
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	c.rule = core.Resolver{Resume: cfg.Resume, Checkpoint: cfg.Checkpoint}
	if cfg.Warehouse != nil {
		// Only a non-nil cache becomes the CellStore: a typed-nil
		// *StudyCache would be a non-nil interface.
		c.rule.Warehouse = cfg.Warehouse
	}
	c.root = cfg.Trace.Start(trace.KindCampaign, "study")
	for _, key := range keys {
		cs := &cellState{key: key, seed: core.CellSeed(cfg.Seed, key), target: cfg.N}
		c.cells = append(c.cells, cs)
		c.byKey[key] = cs
	}
	// A resumed or warehoused cell resolves without a lease; every other
	// cell enters the queue.
	for _, cs := range c.cells {
		if r := c.resolution(cs); c.rule.Lookup(&r) {
			_ = c.commitLocked(&r)
			c.settleLocked(cs, &r)
			c.resolved++
			continue
		}
		cs.cellSpan = cfg.Trace.StartChild(trace.KindCell, cs.key.Lane(), c.root)
		cs.gapSpan = cfg.Trace.StartChild(trace.KindWait, cs.key.Lane(), cs.cellSpan)
	}
	cfg.Metrics.Registry().SetCollector(c.collectGauges)
	c.maybeFinishLocked()
	return c, nil
}

// Start launches the expiry sweeper, which runs every LeaseTTL/4
// (floored at 10ms). Stop releases it.
func (c *Coordinator) Start() {
	c.sweeperWG.Add(1)
	go func() {
		defer c.sweeperWG.Done()
		t := time.NewTicker(max(c.cfg.LeaseTTL/4, 10*time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.sweep(time.Now())
			case <-c.stop:
				return
			}
		}
	}()
}

// Stop halts the sweeper (idempotent is not needed: call once).
func (c *Coordinator) Stop() {
	close(c.stop)
	c.sweeperWG.Wait()
}

// Done is closed once every cell is resolved (done, skipped, or
// degraded).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Drain stops granting leases; in-flight leases may still complete.
// Returns the number of unresolved cells at the moment of the drain.
func (c *Coordinator) Drain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	return len(c.cells) - c.resolved
}

// logf logs through the configured sink.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) emit(e telemetry.Event) {
	if c.cfg.Events != nil {
		c.cfg.Events.Record(e)
	}
}

// emitDuplicate announces a dropped duplicate completion.
func (c *Coordinator) emitDuplicate(req CompleteRequest) {
	ev := core.KeyEvent(telemetry.EventFleetDuplicate, req.CellKey)
	ev.Worker, ev.Lease = req.Worker, req.Lease
	c.emit(ev)
}

// noteWorker records worker contact (mutex held).
func (c *Coordinator) noteWorker(name string, now time.Time) {
	if name != "" {
		c.workers[name] = now
	}
}

// grantLocked finds the first grantable cell in canonical order and
// leases it (mutex held). Returns nil when nothing is grantable.
func (c *Coordinator) grantLocked(worker string, now time.Time) *Lease {
	for _, cs := range c.cells {
		if cs.status != cellPending || now.Before(cs.eligibleAt) {
			continue
		}
		c.nextLease++
		id := c.nextLease
		cs.status, cs.lease = cellLeased, id
		cs.grants++
		if cs.gapSpan.Open() {
			cs.gapSpan.Outcome = "granted"
			cs.gapSpan.Finish()
		}
		cs.leaseSpan = c.cfg.Trace.StartChild(trace.KindLease, cs.key.Lane(), cs.cellSpan)
		cs.leaseSpan.Worker, cs.leaseSpan.Grant = worker, cs.grants
		c.leases[id] = &leaseInfo{cell: cs, worker: worker, deadline: now.Add(c.cfg.LeaseTTL)}
		c.cfg.Metrics.Leases.Inc()
		ev := core.KeyEvent(telemetry.EventFleetLease, cs.key)
		ev.Worker, ev.Lease, ev.Retries = worker, id, cs.grants-1
		c.emit(ev)
		lease := &Lease{
			ID:             id,
			CellKey:        cs.key,
			N:              cs.target,
			Seed:           cs.seed,
			SimFaultLimit:  c.cfg.SimFaultLimit,
			CellDeadlineMS: c.cfg.CellDeadline.Milliseconds(),
			TTLMS:          c.cfg.LeaseTTL.Milliseconds(),
			Grant:          cs.grants,
			Trace:          cs.leaseSpan.TraceID(),
			Span:           cs.leaseSpan.ID(),
		}
		if c.cfg.Adaptive != nil {
			lease.Adaptive = c.cfg.Adaptive.Signature()
			lease.AdaptiveBase = c.cfg.N
		}
		return lease
	}
	return nil
}

// requeueLocked puts a leased cell back in the queue after an expiry or
// failure, or degrades it once the retry budget is exhausted (mutex
// held). reason describes what went wrong; kind is "expiry" or
// "failure" for the log line.
func (c *Coordinator) requeueLocked(cs *cellState, now time.Time, kind, reason string) {
	cs.lease = 0
	if cs.leaseSpan.Open() {
		cs.leaseSpan.Outcome, cs.leaseSpan.Err = kind, reason
		cs.leaseSpan.Finish()
	}
	if cs.grants > c.cfg.MaxRetries {
		// 1+MaxRetries grants all came to nothing: the cell degrades to a
		// typed fleet-failed skip, the fleet analogue of the cell_deadline
		// path, so the study converges instead of retrying forever. Under
		// the resolution rule an extension keeps its round-1 record. A
		// degradation is a coordinator decision, not a lease completion,
		// so a write failure here just detaches the writer.
		r := c.resolution(cs)
		r.Skip = &core.CheckpointSkip{Kind: core.SkipFleet,
			Err: fmt.Sprintf("fleet: cell failed %d lease(s), retry budget exhausted; last: %s", cs.grants, reason)}
		c.logf("fleet: cell %s degraded after %d grants (%s: %s)", cs.key.Lane(), cs.grants, kind, reason)
		_ = c.commitLocked(&r)
		c.settleLocked(cs, &r)
		c.resolveLocked()
		return
	}
	retry := cs.grants // retry number: 1 after the first failed grant
	delay := c.cfg.Backoff << (retry - 1)
	if delay > c.cfg.BackoffCap || delay <= 0 {
		delay = c.cfg.BackoffCap
	}
	if delay > 1 {
		delay = delay/2 + time.Duration(c.rng.Int63n(int64(delay/2)))
	}
	cs.status, cs.eligibleAt = cellPending, now.Add(delay)
	cs.gapSpan = c.cfg.Trace.StartChild(trace.KindRetry, cs.key.Lane(), cs.cellSpan)
	cs.gapSpan.Retry, cs.gapSpan.Err = retry, reason
	c.cfg.Metrics.Retries.Inc()
	c.logf("fleet: cell %s requeued after %s (%s); retry %d/%d in %v",
		cs.key.Lane(), kind, reason, retry, c.cfg.MaxRetries, delay.Round(time.Millisecond))
	ev := core.KeyEvent(telemetry.EventFleetRequeue, cs.key)
	ev.Retries, ev.Err = retry, reason
	c.emit(ev)
}

// resolution starts the resolution of cs at the target its lease
// carries, with its round-1 record while an extension is open (mutex
// held).
func (c *Coordinator) resolution(cs *cellState) core.Resolution {
	return core.Resolution{CellKey: cs.key, Target: cs.target, Base: c.cfg.N, Prior: cs.prior}
}

// commitLocked commits r through the resolution rule. A failed
// checkpoint append detaches the writer and is returned (mutex held).
func (c *Coordinator) commitLocked(r *core.Resolution) error {
	err := c.rule.Commit(r)
	if err != nil {
		c.detachCheckpointLocked(err)
	}
	return err
}

// settleLocked applies one committed resolution to its cell: the record
// the rule keeps, the cell's status, spans and counter, and the event
// the rule announces it with (mutex held). A resumed cell was resolved
// by an earlier coordinator and is not counted again.
func (c *Coordinator) settleLocked(cs *cellState, r *core.Resolution) {
	outcome, counter := "done", c.cfg.Metrics.CellsDone
	switch {
	case r.Skip == nil:
	case r.Skip.Kind == core.SkipFleet:
		outcome, counter = "degraded", c.cfg.Metrics.CellsDegraded
	case r.Prior != nil:
		outcome, counter = "abandoned", c.cfg.Metrics.CellsSkipped
	default:
		outcome, counter = "skipped", c.cfg.Metrics.CellsSkipped
	}
	cs.result, cs.skip = r.Kept()
	cs.prior, cs.lease = nil, 0
	switch {
	case cs.result != nil:
		cs.status = cellDone
		if cs.result.Adaptive.Target > 0 {
			// An adaptive record pins the target it actually ran to (the
			// baseline, or an extension target from the plan).
			cs.target = cs.result.Adaptive.Target
		}
	case cs.skip.Kind == core.SkipFleet:
		cs.status = cellDegraded
	default:
		cs.status = cellSkipped
	}
	// Close the live lease or gap span, then the cell span itself.
	for _, span := range []*trace.Span{&cs.leaseSpan, &cs.gapSpan, &cs.cellSpan} {
		span.Outcome = outcome
		span.Finish()
	}
	if !r.Resumed {
		counter.Inc()
	}
	ev := r.Event()
	if outcome == "degraded" {
		ev.Retries = cs.grants - 1
	}
	c.emit(ev)
}

// resolveLocked accounts one newly resolved cell and closes Done when
// the study converges (mutex held).
func (c *Coordinator) resolveLocked() {
	c.resolved++
	c.maybeFinishLocked()
}

// maybeFinishLocked closes Done once every cell is resolved — unless an
// adaptive study still owes its reallocation round, in which case the
// plan is applied first and the study finishes only when the reopened
// extension cells resolve too (mutex held).
func (c *Coordinator) maybeFinishLocked() {
	if c.resolved != len(c.cells) {
		return
	}
	if c.cfg.Adaptive != nil && !c.planDone {
		c.planDone = true
		if c.applyAdaptivePlanLocked() {
			return
		}
	}
	c.root.Outcome = "done"
	c.root.Finish()
	close(c.done)
}

// applyAdaptivePlanLocked plans round 2 with core.PlanExtensions — the
// function the single-process study calls, over the same canonical-order
// round-1 records — and reopens each cell to extend as a pending
// extension with its raised target. Cells whose resumed record already
// carries the extension target (a restarted coordinator replanning) stay
// resolved. Reports whether any cell was reopened (mutex held).
func (c *Coordinator) applyAdaptivePlanLocked() bool {
	results := make([]*core.CellResult, len(c.cells))
	for i, cs := range c.cells {
		results[i] = cs.result // nil for skipped or degraded cells
	}
	r2 := core.PlanExtensions(c.cfg.Adaptive, c.cfg.N, results)
	c.emit(r2.Event())
	reopened, warehoused := 0, 0
	for _, e := range r2.Extensions {
		cs := c.cells[e.Index]
		// The warehouse may already hold the extended record from an
		// earlier campaign: the grant is a pure function of the round-1
		// records, so the (target, base) identity matches exactly. A hit
		// resolves the extension in place, with no reopening and no lease.
		r := core.Resolution{CellKey: cs.key, Target: e.Target, Base: r2.Plan.BaseN, Prior: cs.result}
		if c.rule.Lookup(&r) {
			_ = c.commitLocked(&r)
			c.settleLocked(cs, &r)
			warehoused++
			continue
		}
		cs.target, cs.prior, cs.result = e.Target, cs.result, nil
		cs.status, cs.grants, cs.lease = cellPending, 0, 0
		cs.eligibleAt = time.Time{}
		// The reopened cell's life continues under an extension span,
		// parented on the (finished) round-1 cell span so the timeline
		// shows the plan's lineage.
		cs.cellSpan = c.cfg.Trace.StartChild(trace.KindExtension, cs.key.Lane(), cs.cellSpan)
		cs.cellSpan.Grant = e.Target
		cs.gapSpan = c.cfg.Trace.StartChild(trace.KindWait, cs.key.Lane(), cs.cellSpan)
		c.resolved--
		reopened++
	}
	c.cfg.Metrics.AdaptiveExtensions.Add(uint64(reopened))
	c.logf("fleet: adaptive plan: %d activations saved by early-stopped cells; %d cell(s) reopened as extensions, %d resolved from the warehouse (+%d granted, %d leftover)",
		r2.Plan.Saved, reopened, warehoused, r2.Plan.Granted, r2.Plan.Leftover)
	return reopened > 0
}

// detachCheckpointLocked drops the (sticky-failed) checkpoint writer so
// the study can still converge in memory; the durable file keeps its
// valid fully-synced prefix (mutex held).
func (c *Coordinator) detachCheckpointLocked(err error) {
	if c.rule.Checkpoint == nil {
		return
	}
	c.rule.Checkpoint = nil
	c.logf("fleet: checkpoint detached after write failure (state continues in memory): %v", err)
}

// sweep expires overdue leases and forgets workers silent for two lease
// TTLs.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, li := range c.leases {
		if now.Before(li.deadline) {
			continue
		}
		delete(c.leases, id)
		if li.cell.status != cellLeased || li.cell.lease != id {
			// Stale entry: the cell was resolved (by a completion from an
			// earlier expired lease) or re-granted while this lease aged
			// out. Nothing to requeue.
			continue
		}
		c.cfg.Metrics.Expiries.Inc()
		ev := core.KeyEvent(telemetry.EventFleetLeaseExpire, li.cell.key)
		ev.Worker, ev.Lease, ev.Retries = li.worker, id, li.cell.grants-1
		c.emit(ev)
		c.requeueLocked(li.cell, now,
			"lease expiry", fmt.Sprintf("worker %s silent past lease deadline", li.worker))
	}
	for name, seen := range c.workers {
		if now.Sub(seen) > 2*c.cfg.LeaseTTL {
			delete(c.workers, name)
		}
	}
}

// collectGauges stores the fleet gauges from the coordinator's own
// tables when /metrics is scraped. It runs under the registry's scrape
// lock and takes the coordinator mutex; coordinator code never takes
// the scrape lock, so the order is fixed.
func (c *Coordinator) collectGauges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now, m := time.Now(), c.cfg.Metrics
	pending, live, done := 0, 0, 0
	for _, cs := range c.cells {
		if cs.status == cellPending {
			pending++
		}
	}
	for _, seen := range c.workers {
		if now.Sub(seen) <= 2*c.cfg.LeaseTTL {
			live++
		}
	}
	select {
	case <-c.done:
		done = 1
	default:
	}
	m.QueueDepth.Set(int64(pending))
	m.ActiveLeases.Set(int64(len(c.leases)))
	m.WorkersLive.Set(int64(live))
	m.StudyDone.Set(int64(done))
}

// complete resolves (or requeues) a cell from one completion report.
func (c *Coordinator) complete(req CompleteRequest, now time.Time) (CompleteResponse, error) {
	key := req.CellKey
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteWorker(req.Worker, now)
	cs, ok := c.byKey[key]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("cell %s is not part of this study", key.Lane())
	}
	// The lease may be gone (expired and swept) — the completion is still
	// good: determinism means any execution of the cell produced the
	// records the study needs.
	if li, live := c.leases[req.Lease]; live && li.cell == cs {
		delete(c.leases, req.Lease)
	}
	if cs.status == cellDone || cs.status == cellSkipped || cs.status == cellDegraded {
		c.cfg.Metrics.Duplicates.Inc()
		c.emitDuplicate(req)
		c.logf("fleet: duplicate completion for %s from %s dropped (cell already resolved)", key.Lane(), req.Worker)
		return CompleteResponse{OK: true, Duplicate: true}, nil
	}

	r := c.resolution(cs)
	switch {
	case req.Failure != "":
		if cs.status != cellLeased || cs.lease != req.Lease {
			// Stale failure from a lease the sweep already expired and
			// requeued (or whose cell another worker resolved meanwhile):
			// the requeue bookkeeping already happened.
			return CompleteResponse{OK: true}, nil
		}
		c.requeueLocked(cs, now, "worker failure", fmt.Sprintf("worker %s: %s", req.Worker, req.Failure))
		return CompleteResponse{OK: true}, nil
	case req.Result != nil:
		// An invalid record is refused before any bookkeeping: the cell
		// stays leased, and its lease expiry or a valid retry resolves it.
		if err := req.Result.Validate(); err != nil {
			return CompleteResponse{}, err
		}
		if c.cfg.Adaptive != nil && req.Result.Target != cs.target {
			// A stale round-1 completion racing the reallocation plan: the
			// cell was reopened with a raised target, so this result is for
			// work the plan superseded. Drop it like any duplicate —
			// determinism makes the extension's round-1 prefix identical.
			c.cfg.Metrics.Duplicates.Inc()
			c.emitDuplicate(req)
			c.logf("fleet: completion for %s at superseded target %d dropped (cell now targets %d)",
				key.Lane(), req.Result.Target, cs.target)
			return CompleteResponse{OK: true, Duplicate: true}, nil
		}
		r.Res = req.Result.Result(key)
	case req.Skip != nil:
		skip := *req.Skip
		r.Skip = &skip
	default:
		return CompleteResponse{}, fmt.Errorf("completion carries neither result, skip, nor failure")
	}
	// Drop any other live lease on this cell (a re-grant that raced this
	// completion) so the sweep never expires a lease onto a resolved cell.
	if cs.status == cellLeased && cs.lease != 0 && cs.lease != req.Lease {
		if li, live := c.leases[cs.lease]; live && li.cell == cs {
			delete(c.leases, cs.lease)
		}
	}
	// Durability first: a failed checkpoint append fails the lease, and
	// the cell is requeued to be re-resolved, in memory once the writer
	// is detached.
	if err := c.commitLocked(&r); err != nil {
		c.requeueLocked(cs, now, "checkpoint failure", err.Error())
		return CompleteResponse{OK: false}, nil
	}
	c.settleLocked(cs, &r)
	c.resolveLocked()
	return CompleteResponse{OK: true}, nil
}

// State assembles the resolved cells into the same CheckpointState a
// checkpoint load or shard merge produces; the study render path
// resumes from it without re-running any campaign.
func (c *Coordinator) State() *core.CheckpointState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &core.CheckpointState{
		N:     c.cfg.N,
		Seed:  c.cfg.Seed,
		Cells: make(map[core.CellKey]*core.CellResult),
		Skips: make(map[core.CellKey]core.CheckpointSkip),
	}
	for _, cs := range c.cells {
		switch {
		case cs.result != nil:
			st.Cells[cs.key] = cs.result
		case cs.skip != nil:
			st.Skips[cs.key] = *cs.skip
		}
	}
	return st
}

// CheckpointIntact reports whether the durable checkpoint is still
// attached (no write failure detached it).
func (c *Coordinator) CheckpointIntact() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rule.Checkpoint != nil
}

// Status is the /statusz payload: the fleet dashboard.
func (c *Coordinator) Status() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	type leaseView struct {
		Lease  uint64 `json:"lease"`
		Worker string `json:"worker"`
		core.CellKey
		Grant     int     `json:"grant"`
		ExpiresIn float64 `json:"expiresInSec"`
	}
	type workerView struct {
		Name     string  `json:"name"`
		LastSeen float64 `json:"lastSeenSecAgo"`
		Leases   int     `json:"activeLeases"`
	}
	var leases []leaseView
	perWorker := make(map[string]int)
	for id, li := range c.leases {
		leases = append(leases, leaseView{Lease: id, Worker: li.worker, CellKey: li.cell.key,
			Grant: li.cell.grants, ExpiresIn: li.deadline.Sub(now).Seconds()})
		perWorker[li.worker]++
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].Lease < leases[j].Lease })
	var workers []workerView
	for name, seen := range c.workers {
		workers = append(workers, workerView{Name: name,
			LastSeen: now.Sub(seen).Seconds(), Leases: perWorker[name]})
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].Name < workers[j].Name })

	counts := map[string]int{}
	for _, cs := range c.cells {
		switch cs.status {
		case cellPending:
			counts["pending"]++
		case cellLeased:
			counts["leased"]++
		case cellDone:
			counts["done"]++
		case cellSkipped:
			counts["skipped"]++
		case cellDegraded:
			counts["degraded"]++
		}
	}
	return map[string]any{
		"study": map[string]any{
			"n": c.cfg.N, "seed": c.cfg.Seed,
			"cells": len(c.cells), "resolved": c.resolved,
		},
		"cells":    counts,
		"leases":   leases,
		"workers":  workers,
		"draining": c.draining,
	}
}

// Handler builds the coordinator's HTTP mux: the fleet protocol
// endpoints, with extra (e.g. the internal/obs mux) mountable by the
// caller on the same server.
func (c *Coordinator) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		now := time.Now()
		c.mu.Lock()
		c.noteWorker(req.Worker, now)
		var resp LeaseResponse
		switch {
		case c.draining || c.resolved == len(c.cells):
			resp = LeaseResponse{Status: StatusDone}
		default:
			if lease := c.grantLocked(req.Worker, now); lease != nil {
				resp = LeaseResponse{Status: StatusLease, Lease: lease}
			} else {
				resp = LeaseResponse{Status: StatusWait, RetryAfterMS: c.cfg.RetryAfter.Milliseconds()}
			}
		}
		c.mu.Unlock()
		if resp.Status == StatusLease {
			c.cfg.Metrics.LeaseFor(req.Worker).Inc()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		now := time.Now()
		c.mu.Lock()
		c.noteWorker(req.Worker, now)
		li, ok := c.leases[req.Lease]
		if ok {
			li.deadline = now.Add(c.cfg.LeaseTTL)
			c.cfg.Metrics.Heartbeats.Inc()
		}
		c.mu.Unlock()
		// Observability piggybacks land outside the lease mutex: span
		// batches and metrics snapshots touch only their own locks.
		c.cfg.Trace.Ingest(req.Spans)
		c.cfg.Metrics.ApplySnapshot(req.Worker, req.Metrics)
		if ok {
			c.cfg.Metrics.HeartbeatFor(req.Worker).Inc()
		}
		writeJSON(w, HeartbeatResponse{OK: ok})
	})
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		c.cfg.Trace.Ingest(req.Spans)
		c.cfg.Metrics.ApplySnapshot(req.Worker, req.Metrics)
		resp, err := c.complete(req, time.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		unresolved := c.Drain()
		c.logf("fleet: draining (%d cells unresolved); no further leases will be granted", unresolved)
		writeJSON(w, DrainResponse{OK: true, Unresolved: unresolved})
	})
	mux.HandleFunc("/warehouse", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if c.cfg.Warehouse == nil {
			http.Error(w, "no warehouse configured (start the coordinator with -warehouse)", http.StatusNotFound)
			return
		}
		// Snapshot the cell identities under the mutex, probe the store
		// outside it — probes touch the disk and must not stall the lease
		// protocol.
		type probeSpec struct {
			key    core.CellKey
			target int
		}
		c.mu.Lock()
		specs := make([]probeSpec, 0, len(c.cells))
		for _, cs := range c.cells {
			specs = append(specs, probeSpec{key: cs.key, target: cs.target})
		}
		c.mu.Unlock()
		type cellView struct {
			core.CellKey
			Target int    `json:"target"`
			Key    string `json:"key,omitempty"`
			Status string `json:"status"`
		}
		out := struct {
			Dir    string         `json:"dir"`
			Cells  []cellView     `json:"cells"`
			Counts map[string]int `json:"counts"`
		}{Dir: c.cfg.Warehouse.Store().Dir(), Counts: map[string]int{}}
		for _, s := range specs {
			kh, _ := c.cfg.Warehouse.KeyHex(s.key, s.target, c.cfg.N)
			status := c.cfg.Warehouse.Probe(s.key, s.target, c.cfg.N)
			out.Cells = append(out.Cells, cellView{CellKey: s.key, Target: s.target, Key: kh, Status: status})
			out.Counts[status]++
		}
		writeJSON(w, out)
	})
	return mux
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}
