package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/obs/trace"
	"hlfi/internal/telemetry"
	"hlfi/internal/warehouse"
)

// Config configures a Coordinator for one study submission.
type Config struct {
	// Programs, N, Seed, and Cells define the study exactly as
	// core.StudyConfig does: empty Cells means
	// core.CanonicalCells(Programs, nil).
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
	// early once converged, and the study driver plans round 2 from the
	// round-1 records and hands the coordinator one extension job per
	// cell to extend, as in a local study.
	Adaptive *adaptive.Config

	// Checkpoint, Resume and Warehouse are the study's
	// core.StudyConfig fields of the same names: resumed and warehoused
	// cells never reach a lease. A failed checkpoint append answers the
	// completion OK:false and fails the study, as in a local study.
	Checkpoint *core.CheckpointWriter
	Resume     *core.CheckpointState
	Warehouse  *warehouse.StudyCache

	// Events, when non-nil, receives the study driver's stream
	// (study_start, the cell events in canonical order, study_done) and
	// the fleet_* events at the coordinator's decision time.
	Events telemetry.Recorder
	// Metrics receives fleet instruments (a fresh set is created when
	// nil).
	Metrics *Metrics
	// Trace, when non-nil, records the study timeline: the driver's
	// campaign root and cell/extension spans, the coordinator's
	// wait/lease/retry spans under each, and the worker exec spans
	// ingested from heartbeat and completion piggybacks. Results are
	// byte-identical with tracing on or off.
	Trace *trace.Recorder
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Cell lifecycle states, in the order statusNames names them.
const (
	cellPending  = iota // unresolved: waiting for its job, or queued (possibly backing off)
	cellLeased          // granted to a worker, lease live
	cellDone            // resolved with a result
	cellSkipped         // resolved with a soft skip
	cellDegraded        // resolved with a fleet-failed skip (retry budget exhausted)
)

var statusNames = [...]string{"pending", "leased", "done", "skipped", "degraded"}

// cellState is the coordinator's bookkeeping for one canonical cell.
// The study driver owns its record; the coordinator leases its open job.
type cellState struct {
	key        core.CellKey
	seed       int64
	status     int
	job        *job      // the driver's open job on the cell, nil when none is open
	grants     int       // leases granted for the open job
	eligibleAt time.Time // backoff gate while pending
	lease      uint64    // live lease ID while leased
	target     int       // activation target of the cell's latest job
	degraded   bool      // the latest job ran out of retry budget

	// Trace spans under the job's cell span (zero-value no-ops when
	// tracing is off): gapSpan covers the current queue wait or retry
	// backoff, leaseSpan the live grant.
	gapSpan   trace.Span
	leaseSpan trace.Span
}

// job is one cell job the study driver handed to the fleet.
type job struct {
	r      *core.Resolution
	span   trace.Span // the driver's cell or extension span
	commit func() error
	done   chan struct{} // closed once the job is resolved or withdrawn
	err    error         // commit's error
	// cancelled: the study was cancelled, so a lease that ends without a
	// completion withdraws the job instead of requeueing it.
	cancelled bool
}

// leaseInfo is one live lease.
type leaseInfo struct {
	cell     *cellState
	worker   string
	deadline time.Time
}

// Coordinator serves one study to a fleet of workers: the study runs
// through core.RunStudyOn with the coordinator as its executor, which
// keeps leases, expiry, retries, degradation, the worker table, HTTP,
// spans and fleet counters. All HTTP handlers, the expiry sweep and the
// executor share one mutex; no campaign ever runs under it.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	cells     []*cellState
	byKey     map[core.CellKey]*cellState
	leases    map[uint64]*leaseInfo
	nextLease uint64
	draining  bool
	over      bool                 // the study driver has returned
	workers   map[string]time.Time // last contact
	rng       *rand.Rand
	// pass and opened count the jobs the driver's current pass hands
	// over and those open so far; ready is closed (and cleared) once a
	// pass has opened all of its jobs.
	pass, opened int
	ready        chan struct{}

	cancel context.CancelFunc // cancels the study context
	study  *core.Study        // the driver's result, set before done closes
	err    error

	done      chan struct{} // closed once the study driver returns
	stop      chan struct{}
	stopOnce  sync.Once
	sweeperWG sync.WaitGroup
}

// New submits one study: it launches the study driver with the
// coordinator as its executor and returns once every cell a lookup
// (resume state or warehouse) resolves is resolved and either the study
// is done or its first pass of jobs is open for leasing.
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

	ready := make(chan struct{})
	c := &Coordinator{
		cfg:     cfg,
		byKey:   make(map[core.CellKey]*cellState, len(keys)),
		leases:  make(map[uint64]*leaseInfo),
		workers: make(map[string]time.Time),
		rng:     rand.New(rand.NewSource(seed)),
		ready:   ready,
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	for _, key := range keys {
		cs := &cellState{key: key, seed: core.CellSeed(cfg.Seed, key), target: cfg.N}
		c.cells = append(c.cells, cs)
		c.byKey[key] = cs
	}
	cfg.Metrics.Registry().SetCollector(c.collectGauges)

	study := core.StudyConfig{Programs: cfg.Programs, Cells: keys, N: cfg.N, Seed: cfg.Seed,
		Adaptive: cfg.Adaptive, Checkpoint: cfg.Checkpoint, Resume: cfg.Resume,
		Events: telemetry.Multi(cellEvents{c}, cfg.Events), Trace: cfg.Trace}
	if cfg.Warehouse != nil {
		// Only a non-nil cache becomes the CellStore: a typed-nil
		// *StudyCache would be a non-nil interface.
		study.Warehouse = cfg.Warehouse
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go func() {
		st, err := core.RunStudyOn(ctx, study, executor{c})
		c.mu.Lock()
		c.study, c.err, c.over = st, err, true
		c.mu.Unlock()
		close(c.done)
	}()
	select {
	case <-ready:
	case <-c.done:
	}
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

// Stop halts the sweeper, withdraws every open job and returns once the
// study driver has returned. Calling it again does nothing more.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.cancel()
		c.mu.Lock()
		c.draining = true
		for _, cs := range c.cells {
			if cs.job != nil {
				c.endJobLocked(cs, "aborted")
			}
		}
		c.mu.Unlock()
	})
	c.sweeperWG.Wait()
	<-c.done
}

// Done is closed once the study driver returns: every cell resolved,
// or the study drained, stopped or failed (see Wait).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the study driver returns and returns what it
// returned: the study; after a drain or Stop, the partial study with an
// error wrapping core.ErrAborted; or the error that failed the study.
func (c *Coordinator) Wait() (*core.Study, error) {
	<-c.done
	return c.study, c.err
}

// Drain cancels the study: no further leases are granted, leased jobs
// wait for their completions, and the driver returns the partial study.
// Returns the number of unresolved cells at the moment of the drain.
func (c *Coordinator) Drain() int {
	c.mu.Lock()
	c.draining = true
	unresolved := 0
	for _, cs := range c.cells {
		if cs.status <= cellLeased {
			unresolved++
		}
	}
	c.mu.Unlock()
	c.cancel()
	return unresolved
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

// executor is the fleet's core.Executor.
type executor struct{ c *Coordinator }

// Width holds every job of a pass at once: a fleet job is a wait on the
// workers, not local work. The pass size also tells New when the pass
// is open for leasing.
func (x executor) Width(n int) int {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	x.c.pass, x.c.opened = n, 0
	return n
}

// Run queues the job and waits until a completion (or the retry budget)
// resolves it. Once the study is cancelled, a queued job is withdrawn at
// once and a leased one when its lease ends without a completion.
func (x executor) Run(ctx context.Context, r *core.Resolution, span trace.Span, commit func() error) error {
	c, j := x.c, &job{r: r, span: span, commit: commit, done: make(chan struct{})}
	c.mu.Lock()
	cs := c.byKey[r.CellKey]
	*cs = cellState{key: cs.key, seed: cs.seed, job: j, target: r.Target,
		gapSpan: c.cfg.Trace.StartChild(trace.KindWait, cs.key.Lane(), span)}
	if r.Prior != nil {
		c.cfg.Metrics.AdaptiveExtensions.Inc()
	}
	if c.opened++; c.opened == c.pass && c.ready != nil {
		close(c.ready)
		c.ready = nil
	}
	c.mu.Unlock()
	select {
	case <-j.done:
	case <-ctx.Done():
		c.mu.Lock()
		if cs.job == j {
			j.cancelled = true
			if cs.status == cellPending {
				c.endJobLocked(cs, "aborted")
			}
		}
		c.mu.Unlock()
		<-j.done
	}
	return j.err
}

// resolveLocked gives the open job of cs its outcome, commits it through
// the driver's resolution rule and ends the job (mutex held). Returns
// commit's error, a failed checkpoint append.
func (c *Coordinator) resolveLocked(cs *cellState, res *core.CellResult, skip *core.CheckpointSkip) error {
	j := cs.job
	j.r.Res, j.r.Skip = res, skip
	j.err = j.commit()
	switch {
	case res != nil || j.r.Prior != nil: // an abandoned extension keeps its round-1 record
		cs.status = cellDone
	case cs.degraded:
		cs.status = cellDegraded
	default:
		cs.status = cellSkipped
	}
	outcome := "done"
	if j.err != nil {
		outcome = "failure"
	}
	c.endJobLocked(cs, outcome)
	return j.err
}

// endJobLocked ends the open job of cs with its live lease and spans.
// Outcome "aborted" withdraws the job unresolved (mutex held).
func (c *Coordinator) endJobLocked(cs *cellState, outcome string) {
	delete(c.leases, cs.lease)
	for _, span := range []*trace.Span{&cs.leaseSpan, &cs.gapSpan} {
		if span.Open() {
			span.Outcome = outcome
			span.Finish()
		}
	}
	if outcome == "aborted" {
		cs.status = cellPending
	}
	close(cs.job.done)
	cs.job, cs.lease = nil, 0
}

// grantLocked finds the first grantable cell in canonical order and
// leases it (mutex held). Returns nil when nothing is grantable.
func (c *Coordinator) grantLocked(worker string, now time.Time) *Lease {
	for _, cs := range c.cells {
		if cs.job == nil || cs.status != cellPending || now.Before(cs.eligibleAt) {
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
		cs.leaseSpan = c.cfg.Trace.StartChild(trace.KindLease, cs.key.Lane(), cs.job.span)
		cs.leaseSpan.Worker, cs.leaseSpan.Grant = worker, cs.grants
		c.leases[id] = &leaseInfo{cell: cs, worker: worker, deadline: now.Add(c.cfg.LeaseTTL)}
		c.cfg.Metrics.Leases.Inc()
		ev := core.KeyEvent(telemetry.EventFleetLease, cs.key)
		ev.Worker, ev.Lease, ev.Retries = worker, id, cs.grants-1
		c.emit(ev)
		lease := &Lease{
			ID:             id,
			CellKey:        cs.key,
			N:              cs.job.r.Target,
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
			lease.AdaptiveBase = cs.job.r.Base
		}
		return lease
	}
	return nil
}

// requeueLocked puts a leased cell's job back in the queue after an
// expiry or failure, degrades it once the retry budget is exhausted, or
// withdraws it once the study is cancelled (mutex held). reason
// describes what went wrong; kind is "expiry" or "failure" for the log
// line.
func (c *Coordinator) requeueLocked(cs *cellState, now time.Time, kind, reason string) {
	cs.lease = 0
	if cs.leaseSpan.Open() {
		cs.leaseSpan.Outcome, cs.leaseSpan.Err = kind, reason
		cs.leaseSpan.Finish()
	}
	if cs.job.cancelled {
		c.endJobLocked(cs, "aborted")
		return
	}
	if cs.grants > c.cfg.MaxRetries {
		// 1+MaxRetries grants all came to nothing: the cell degrades to a
		// typed fleet-failed skip, the fleet analogue of the cell_deadline
		// path, so the study converges instead of retrying forever. Under
		// the resolution rule an extension keeps its round-1 record.
		c.logf("fleet: cell %s degraded after %d grants (%s: %s)", cs.key.Lane(), cs.grants, kind, reason)
		cs.degraded = true
		skip := &core.CheckpointSkip{Kind: core.SkipFleet,
			Err: fmt.Sprintf("fleet: cell failed %d lease(s), retry budget exhausted; last: %s", cs.grants, reason)}
		if err := c.resolveLocked(cs, nil, skip); err != nil {
			c.logf("fleet: degradation of %s not committed: %v", cs.key.Lane(), err)
		}
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
	cs.gapSpan = c.cfg.Trace.StartChild(trace.KindRetry, cs.key.Lane(), cs.job.span)
	cs.gapSpan.Retry, cs.gapSpan.Err = retry, reason
	c.cfg.Metrics.Retries.Inc()
	c.logf("fleet: cell %s requeued after %s (%s); retry %d/%d in %v",
		cs.key.Lane(), kind, reason, retry, c.cfg.MaxRetries, delay.Round(time.Millisecond))
	ev := core.KeyEvent(telemetry.EventFleetRequeue, cs.key)
	ev.Retries, ev.Err = retry, reason
	c.emit(ev)
}

// retryAfterLocked is the poll delay for a worker that found nothing to
// lease: RetryAfter while any job is open, else a millisecond, since the
// driver is then between passes or returning and takes no longer
// (mutex held).
func (c *Coordinator) retryAfterLocked() time.Duration {
	for _, cs := range c.cells {
		if cs.job != nil {
			return c.cfg.RetryAfter
		}
	}
	return time.Millisecond
}

// cellEvents reads the study driver's cell events, which announce every
// resolution, lookups included: the resolution counters and the status
// of a looked-up cell are kept here.
type cellEvents struct{ c *Coordinator }

func (v cellEvents) Record(e telemetry.Event) {
	c := v.c
	if e.Type == telemetry.EventAdaptivePlan {
		c.logf("fleet: adaptive plan: %d activations saved by early-stopped cells; %d cell(s) granted +%d (%d leftover)",
			e.AdaptiveSaved, e.AdaptiveExtendedCells, e.AdaptiveGranted, e.AdaptiveLeftover)
	}
	level, _ := fault.ParseLevel(e.Level)
	cat, _ := fault.ParseCategory(e.Category)
	key := core.CellKey{Prog: e.Benchmark, Level: level, Category: cat, Variant: core.Variant(e.Variant)}
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, m := c.byKey[key], c.cfg.Metrics
	if cs == nil {
		return // a study-wide event
	}
	// A resolution the resume state restored (a cell this coordinator
	// never leased, announced as a resume, an extension or a skip the
	// state holds) was counted by the coordinator that leased it.
	var held core.CheckpointSkip
	resumed := e.Type == telemetry.EventCellResume
	if c.cfg.Resume != nil && cs.grants == 0 {
		var ok bool
		held, ok = c.cfg.Resume.Skips[key]
		resumed = resumed || ok || e.Type == telemetry.EventCellExtend
	}
	abandoned := e.Type == telemetry.EventCellExtend && e.Err != "" // keeps its round-1 record
	counter := m.CellsDone
	switch {
	case abandoned && cs.degraded:
		counter = m.CellsDegraded
	case abandoned:
		counter = m.CellsSkipped
	case e.Type == telemetry.EventCellDeadline && (cs.degraded || held.Kind == core.SkipFleet):
		cs.status, counter = cellDegraded, m.CellsDegraded
	case e.Type == telemetry.EventCellSkip || e.Type == telemetry.EventCellDeadline:
		cs.status, counter = cellSkipped, m.CellsSkipped
	case e.Type == telemetry.EventCellDone || e.Type == telemetry.EventWarehouseHit ||
		e.Type == telemetry.EventCellExtend || resumed:
		cs.status = cellDone
		if e.Type == telemetry.EventCellResume { // cell_resume carries the counts only
			e.AdaptiveTarget = c.cfg.Resume.Cells[key].Adaptive.Target
		}
		if e.AdaptiveTarget > 0 {
			cs.target = e.AdaptiveTarget
		}
	default:
		return // sim_fault and attempt_trace carry no resolution
	}
	if !resumed {
		counter.Inc()
	}
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
		if li.cell.job == nil || li.cell.lease != id {
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
		if cs.job != nil && cs.status == cellPending {
			pending++
		}
	}
	for _, seen := range c.workers {
		if now.Sub(seen) <= 2*c.cfg.LeaseTTL {
			live++
		}
	}
	if c.over {
		done = 1
	}
	m.QueueDepth.Set(int64(pending))
	m.ActiveLeases.Set(int64(len(c.leases)))
	m.WorkersLive.Set(int64(live))
	m.StudyDone.Set(int64(done))
}

// complete resolves (or requeues) a cell's open job from one completion
// report, answering OK only once the resolution is committed.
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
	j := cs.job
	if j == nil {
		c.cfg.Metrics.Duplicates.Inc()
		c.emitDuplicate(req)
		c.logf("fleet: duplicate completion for %s from %s dropped (no open job on the cell)", key.Lane(), req.Worker)
		return CompleteResponse{OK: true, Duplicate: true}, nil
	}

	var (
		res  *core.CellResult
		skip *core.CheckpointSkip
	)
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
		if c.cfg.Adaptive != nil && req.Result.Target != j.r.Target {
			// A stale round-1 completion racing the reallocation plan: the
			// open job is the cell's extension, at a raised target. Drop it
			// like any duplicate — determinism makes the extension's
			// round-1 prefix identical.
			c.cfg.Metrics.Duplicates.Inc()
			c.emitDuplicate(req)
			c.logf("fleet: completion for %s at superseded target %d dropped (cell now targets %d)",
				key.Lane(), req.Result.Target, j.r.Target)
			return CompleteResponse{OK: true, Duplicate: true}, nil
		}
		res = req.Result.Result(key)
	case req.Skip != nil:
		s := *req.Skip
		skip = &s
	default:
		return CompleteResponse{}, fmt.Errorf("completion carries neither result, skip, nor failure")
	}
	// resolveLocked also drops any other live lease on the cell (a
	// re-grant that raced this completion), so the sweep never expires a
	// lease onto a resolved cell.
	if err := c.resolveLocked(cs, res, skip); err != nil {
		c.logf("fleet: completion for %s from %s not committed: %v", key.Lane(), req.Worker, err)
		return CompleteResponse{OK: false}, nil
	}
	return CompleteResponse{OK: true}, nil
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
		counts[statusNames[cs.status]]++
	}
	return map[string]any{
		"study": map[string]any{
			"n": c.cfg.N, "seed": c.cfg.Seed,
			"cells": len(c.cells), "resolved": counts["done"] + counts["skipped"] + counts["degraded"],
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
		case c.draining || c.over:
			resp = LeaseResponse{Status: StatusDone}
		default:
			if lease := c.grantLocked(req.Worker, now); lease != nil {
				resp = LeaseResponse{Status: StatusLease, Lease: lease}
			} else {
				resp = LeaseResponse{Status: StatusWait, RetryAfterMS: c.retryAfterLocked().Milliseconds()}
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
