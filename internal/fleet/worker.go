package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/obs/trace"
	"hlfi/internal/telemetry"
)

// workerSnapshotBudget caps the accounted bytes of a worker's snapshot
// cache: about one (program, level) working set. The coordinator grants
// cells in canonical (program, level, category) order, so a worker only
// ever needs the snapshots of the (program, level) it is running; the
// cache's LRU evicts the previous entry and thins an oversized one.
const workerSnapshotBudget = 1 << 20

// newWorkerReplay returns the replay config a worker arms for its
// lifetime.
func newWorkerReplay() *core.ReplayConfig {
	return &core.ReplayConfig{MemBudget: workerSnapshotBudget, Stats: &telemetry.ReplayStats{}}
}

// ReplaySignature renders the replay policy every worker runs, for the
// provenance field of a fleet checkpoint header.
func ReplaySignature() string { return newWorkerReplay().Signature() }

// WorkerConfig configures one fleet worker loop.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator (dashboard and
	// lease accounting).
	Name string
	// Client talks to the coordinator.
	Client *Client
	// BuildProgram loads a benchmark by name; bench.Build when nil.
	// Built programs are cached for the worker's lifetime, so a worker
	// leasing ten cells of one benchmark compiles it once.
	BuildProgram func(name string) (*core.Program, error)
	// Logf, when non-nil, receives per-lease log lines.
	Logf func(format string, args ...any)

	// testAcquireHook, when non-nil, runs after a lease is acquired and
	// before the cell executes; returning false abandons the lease
	// silently (simulating a worker killed mid-cell) and ends the
	// worker loop.
	testAcquireHook func(*Lease) bool
	// testReplayHook, when non-nil, receives the worker's replay stats
	// after every executed lease.
	testReplayHook func(*telemetry.ReplayStats)
}

// RunWorker runs the worker loop: lease, execute, heartbeat, complete,
// repeat — until the coordinator reports the study done (or drains), or
// ctx is cancelled. Cancellation is a graceful drain: the cell in
// flight finishes and its completion is reported (with a short grace
// context) before the loop exits, so a SIGTERM-ed worker wastes no
// work; the coordinator's lease expiry covers the SIGKILL case.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Client == nil {
		return fmt.Errorf("fleet worker %s: no client", cfg.Name)
	}
	if cfg.BuildProgram == nil {
		cfg.BuildProgram = bench.Build
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	w := &workerState{
		progs: make(map[string]*core.Program),
		// One replay and one compiled-engine config for the worker's
		// lifetime, so the snapshot cache and the compiled-program cache
		// span leases (results are byte-identical with or without them).
		replay:   newWorkerReplay(),
		compiled: &core.CompiledConfig{},
	}

	for {
		if ctx.Err() != nil {
			logf("fleet worker %s: drained, exiting", cfg.Name)
			return nil
		}
		resp, err := cfg.Client.Lease(ctx, cfg.Name)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("fleet worker %s: %w", cfg.Name, err)
		}
		switch resp.Status {
		case StatusDone:
			logf("fleet worker %s: coordinator reports study done, exiting", cfg.Name)
			return nil
		case StatusWait:
			wait := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = 200 * time.Millisecond
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
			continue
		case StatusLease:
			if resp.Lease == nil {
				return fmt.Errorf("fleet worker %s: lease response without lease", cfg.Name)
			}
			if cfg.testAcquireHook != nil && !cfg.testAcquireHook(resp.Lease) {
				return nil // simulated mid-cell death
			}
			if err := executeLease(ctx, cfg, w, resp.Lease, logf); err != nil {
				return fmt.Errorf("fleet worker %s: %w", cfg.Name, err)
			}
			if cfg.testReplayHook != nil {
				cfg.testReplayHook(w.replay.Stats)
			}
		default:
			return fmt.Errorf("fleet worker %s: unknown lease status %q", cfg.Name, resp.Status)
		}
	}
}

// workerState is the cross-lease cache of one worker: built programs,
// the replay config (with its snapshot cache), the compiled-engine
// config (with its program cache), and the observability side — a
// lazily armed trace recorder (first traced lease arms it) plus
// cumulative counters piggybacked to the coordinator on every
// heartbeat and completion.
type workerState struct {
	progs    map[string]*core.Program
	replay   *core.ReplayConfig
	compiled *core.CompiledConfig
	tracer   *trace.Recorder

	// Cumulative since worker start; atomics because the heartbeat
	// goroutine snapshots them while the lease loop updates them.
	cells     atomic.Uint64
	attempts  atomic.Uint64
	activated atomic.Uint64
	simFaults atomic.Uint64
	builds    atomic.Uint64
}

// snapshot is the worker's current cumulative metrics payload.
func (w *workerState) snapshot() *WorkerSnapshot {
	return &WorkerSnapshot{
		Cells:     w.cells.Load(),
		Attempts:  w.attempts.Load(),
		Activated: w.activated.Load(),
		SimFaults: w.simFaults.Load(),
		Builds:    w.builds.Load(),
	}
}

// executeLease runs one leased cell and reports its outcome. Only
// transport-level trouble (completion undeliverable after retries)
// fails the worker; campaign errors travel inside the completion.
func executeLease(ctx context.Context, cfg WorkerConfig, w *workerState, lease *Lease, logf func(string, ...any)) error {
	retryNote := ""
	if lease.Grant > 1 {
		retryNote = fmt.Sprintf(" (grant %d: retry of an expired or failed lease)", lease.Grant)
	}
	logf("fleet worker %s: lease %d: %s n=%d seed=%d%s",
		cfg.Name, lease.ID, lease.Lane(), lease.N, lease.Seed, retryNote)

	// A traced lease (Trace set in the grant) arms the worker's recorder
	// once; the exec span parents under the coordinator's lease span via
	// the propagated context, so the merged timeline connects grant to
	// execution.
	if lease.Trace != 0 && w.tracer == nil {
		w.tracer, _ = trace.New(trace.Options{Worker: cfg.Name})
	}
	span := w.tracer.StartRemote(trace.KindExec, lease.Lane(), lease.Trace, lease.Span)
	span.Worker, span.Grant = cfg.Name, lease.Grant

	req := CompleteRequest{Worker: cfg.Name, Lease: lease.ID, CellKey: lease.CellKey}
	res, runErr := runLeasedCell(ctx, cfg, w, lease, span)
	switch {
	case runErr == nil:
		req.Result = core.RecordOf(res)
	case core.IsSoftSkip(runErr):
		skip := core.SkipOf(runErr)
		req.Skip = &skip
	default:
		req.Failure = runErr.Error()
	}
	switch {
	case runErr == nil:
		span.Outcome = "done"
		w.cells.Add(1)
		w.attempts.Add(uint64(res.Attempts))
		w.activated.Add(uint64(res.Benign + res.SDC + res.Crash + res.Hang))
		w.simFaults.Add(uint64(res.SimFaults))
	case core.IsSoftSkip(runErr):
		span.Outcome, span.Err = "skipped", runErr.Error()
		w.cells.Add(1)
	default:
		span.Outcome, span.Err = "failure", runErr.Error()
	}
	span.Finish()
	req.Spans = w.tracer.TakeBatch()
	req.Metrics = w.snapshot()

	// Deliver the completion even when the worker is draining: the cell
	// is done, losing the report would force a pointless retry. A short
	// grace context covers the post-cancellation send.
	sendCtx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		sendCtx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
	}
	cresp, err := cfg.Client.Complete(sendCtx, req)
	if err != nil {
		return err
	}
	if cresp.Duplicate {
		logf("fleet worker %s: lease %d: completion was a duplicate (cell already resolved elsewhere)", cfg.Name, lease.ID)
	}
	return nil
}

// runLeasedCell executes the campaign behind one lease, heartbeating
// while it runs. The campaign itself is uncancellable mid-cell (cells
// are the atomic unit of work); heartbeats stop when it finishes.
func runLeasedCell(ctx context.Context, cfg WorkerConfig, w *workerState, lease *Lease, parent trace.Span) (*core.CellResult, error) {
	prog, ok := w.progs[lease.Prog]
	if !ok {
		bs := w.tracer.StartChild(trace.KindBuild, lease.Prog, parent)
		bs.Worker = cfg.Name
		var err error
		prog, err = cfg.BuildProgram(lease.Prog)
		if err != nil {
			bs.Outcome, bs.Err = "failure", err.Error()
			bs.Finish()
			return nil, err
		}
		bs.Outcome = "done"
		bs.Finish()
		w.builds.Add(1)
		w.progs[lease.Prog] = prog
	}

	// Heartbeat at a third of the lease TTL: two missed beats of slack
	// before the coordinator declares the worker dead.
	interval := time.Duration(lease.TTLMS) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// Heartbeats are best-effort: delivery failures fall to the
				// client's own retry, and a lost lease is discovered at
				// completion time (the coordinator dedupes). Finished spans
				// and the cumulative metrics snapshot ride along.
				hb := HeartbeatRequest{Worker: cfg.Name, Lease: lease.ID,
					Spans: w.tracer.TakeBatch(), Metrics: w.snapshot()}
				if ok, err := cfg.Client.Heartbeat(ctx, hb); err == nil && !ok {
					if cfg.Logf != nil {
						cfg.Logf("fleet worker %s: lease %d no longer live (expired or resolved elsewhere); finishing the cell anyway",
							cfg.Name, lease.ID)
					}
				}
			case <-hbStop:
				return
			}
		}
	}()
	defer func() { close(hbStop); <-hbDone }()

	adaptCfg, err := adaptive.ParseSignature(lease.Adaptive)
	if err != nil {
		return nil, fmt.Errorf("lease %d: bad adaptive signature %q: %w", lease.ID, lease.Adaptive, err)
	}
	c := &core.Campaign{
		Prog:          prog,
		Level:         lease.Level,
		Category:      lease.Category,
		Variant:       lease.Variant,
		N:             lease.N,
		Seed:          lease.Seed,
		SimFaultLimit: lease.SimFaultLimit,
		Deadline:      time.Duration(lease.CellDeadlineMS) * time.Millisecond,
		Replay:        w.replay,
		Compiled:      w.compiled,
		Adaptive:      adaptCfg,
		AdaptiveBase:  lease.AdaptiveBase,
	}
	return c.Run()
}
