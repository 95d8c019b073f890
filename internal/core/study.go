package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/fault"
	"hlfi/internal/llfi"
	"hlfi/internal/obs"
	"hlfi/internal/obs/trace"
	"hlfi/internal/pinfi"
	"hlfi/internal/sched"
	"hlfi/internal/telemetry"
)

// CellKey identifies one campaign cell. Every per-cell coordinate is a
// field here; study-wide inputs are CheckpointShape.Identity entries.
//
// It is also the one wire form of a cell: checkpoint lines, warehouse
// records and fleet messages embed it, so each names a cell by the same
// four JSON fields. A paper cell has no "variant" field, and a record
// naming no cell (a checkpoint header) has none of the four. CellKey
// must never get a MarshalJSON or MarshalText method: embedding promotes
// it, and it would replace the encoding of every record that embeds it.
type CellKey struct {
	Prog     string         `json:"benchmark,omitempty"`
	Level    fault.Level    `json:"level,omitempty"`
	Category fault.Category `json:"category,omitempty"`
	// Variant is VariantPaper (the zero value) for every paper cell.
	Variant Variant `json:"variant,omitempty"`
}

// String renders the key as error messages name cells.
func (k CellKey) String() string {
	return fmt.Sprintf("{%s %s %s%s}", k.Prog, k.Level, k.Category, k.variantSuffix(" "))
}

// Lane is the cell's span (timeline lane) name, in the local study and
// on the fleet alike.
func (k CellKey) Lane() string {
	return k.Prog + "/" + k.Level.String() + "/" + k.Category.String() + k.variantSuffix("/")
}

// variantSuffix is "" for a paper cell, else sep and the variant name:
// a non-paper cell extends every rendering of its identity, so paper
// renderings keep their bytes.
func (k CellKey) variantSuffix(sep string) string {
	if k.Variant == VariantPaper {
		return ""
	}
	return sep + k.Variant.String()
}

// Study holds the full cross-product of campaign results — everything
// needed to regenerate the paper's Figure 3, Table IV, Figure 4, and
// Table V.
type Study struct {
	Programs []*Program
	N        int
	Seed     int64

	// Adaptive is the early-stopping config the study ran under (nil for
	// fixed-n studies); it gates the accuracy-vs-cost render sections.
	Adaptive *adaptive.Config

	Cells map[CellKey]*CellResult
	// Dyn holds dynamic candidate counts (Table IV), including cells
	// where no injections were run.
	Dyn map[CellKey]uint64
}

// StudyConfig configures RunStudy.
type StudyConfig struct {
	Programs []*Program
	// N activated injections per cell (paper: 1000).
	N int
	// Seed derives per-cell seeds deterministically.
	Seed int64
	// Cells lists the study's cells in canonical order: the order
	// progress, telemetry and shard ownership follow. Empty means
	// CanonicalCells(Programs, nil), the paper's full cross-product;
	// CalibrationCells(Programs) is the §VII calibration study.
	Cells []CellKey
	// Progress, when non-nil, receives one line per completed cell, in
	// canonical cell order regardless of scheduling.
	Progress func(string)
	// Parallel > 1 runs whole campaign cells concurrently on a bounded
	// worker pool, clamped to sched.Budget(). Every cell keeps its own
	// seeded random stream, so the study result is byte-identical to the
	// serial path (and the committed outputs) for any Parallel value.
	Parallel int
	// Events, when non-nil, receives the campaign telemetry stream.
	Events telemetry.Recorder
	// SimFaultLimit is the per-cell panic-containment policy (see
	// Campaign.SimFaultLimit): 0 fails a cell on its first contained
	// simulator panic, K > 0 tolerates up to K, negative tolerates all.
	SimFaultLimit int
	// CellDeadline, when positive, is the per-cell wall-clock watchdog:
	// a cell still running after this long is marked degraded-and-
	// skipped (with a cell_deadline event) instead of stalling the pool.
	CellDeadline time.Duration
	// Checkpoint, when non-nil, receives every completed or soft-skipped
	// cell as it finishes (durability path; append order is completion
	// order). A failed append is a hard study error (typed
	// *CheckpointWriteError): once durability is armed, silently losing
	// it would poison the next -resume.
	Checkpoint *CheckpointWriter
	// Resume, when non-nil, restores previously completed cells from a
	// loaded checkpoint: recorded cells are not re-run, and because every
	// cell derives its seed via cellSeed, the resumed study's output is
	// byte-identical to an uninterrupted run.
	Resume *CheckpointState
	// Replay, when non-nil, arms golden-run snapshot fast-forward replay
	// for every cell. The study's results, progress lines, and rendered
	// reports are byte-identical with or without it; only timing and the
	// replay telemetry differ.
	Replay *ReplayConfig
	// Compiled, when non-nil, runs untraced injection attempts on the
	// compiled execution engines instead of the interpreters, sharing one
	// compiled-program cache across every cell. The study's results,
	// progress lines, checkpoints, and rendered reports are byte-identical
	// with or without it; only timing and the compiled-engine telemetry
	// differ.
	Compiled *CompiledConfig
	// Obs, when non-nil, receives the live study metrics no other
	// component counts: the attempt and outcome counters, the
	// cells-in-flight gauge and the latency histograms. BindMetrics
	// makes its other series read their owners when scraped. Purely
	// observational: results, progress lines, telemetry events, and
	// checkpoints are byte-identical with or without it.
	Obs *obs.Metrics
	// Trace, when non-nil, records the study timeline: a campaign root
	// span, one cell span per executed cell with reconstructed scan/run
	// child spans, and extension spans for the adaptive round 2. Spans
	// consume no randomness and the attempt hot path is untouched, so
	// results, checkpoints, and reports are byte-identical with tracing
	// on or off; nil is the zero-cost disabled path.
	Trace *trace.Recorder
	// TraceAttempts, when positive, arms fault-propagation tracing for
	// the first TraceAttempts attempts of every cell; each traced
	// attempt is released as an attempt_trace telemetry event. Tracing
	// never changes outcomes or random streams.
	TraceAttempts int
	// Adaptive, when non-nil, arms the early-stopping engine: round 1
	// runs every cell under the group-sequential stopping rule, then the
	// activation budget saved by early-stopped cells is reallocated to
	// the widest unconverged cells and those are extended in a round 2.
	// Both rounds are pure functions of (seed, programs, N, adaptive
	// config): resumed, sharded, merged, and fleet-run adaptive studies
	// are byte-identical to the single-process run. Shard workers run
	// round 1 only (a shard cannot see the full round-1 state); the
	// -merge render computes the plan and runs the extensions.
	Adaptive *adaptive.Config
	// Shard, when non-nil, restricts the study to the canonical cells
	// this shard owns (index%Count == Index), preserving canonical order
	// within the subset. Because every cell derives its seed via
	// cellSeed, a shard worker is fully self-contained: merging the
	// shard checkpoints of a complete shard set reproduces the unsharded
	// study byte for byte. Profiling (Table IV's Dyn counts) still
	// covers every program — it sums the build-time golden profiles and
	// executes nothing.
	Shard *ShardSpec
	// Warehouse, when non-nil, is the content-addressed result cache:
	// every cell is looked up before execution (a hit resolves the cell
	// without running a single injection, byte-identical to a cold run
	// by the warehouse axis of TestStudyMatrix) and stored after. Unlike
	// Checkpoint, the warehouse is an accelerator, not the durability
	// path: its failures degrade to misses or dropped stores and never
	// abort the study. Warehouse-resolved cells are still appended to
	// the checkpoint, so -resume and the fleet render see them.
	Warehouse CellStore
}

// CellStore is the content-addressed result warehouse seen from the
// study scheduler (implemented by warehouse.StudyCache; an interface
// here so core does not depend on the storage layer). target and base
// are the cell record's (activated-target, adaptive-base) identity:
// (N, N) for fixed-n and adaptive round-1 records, (BaseN+grant, BaseN)
// for round-2 extensions. Implementations must be safe for concurrent
// use and fail-stop: a storage problem surfaces as a miss or a dropped
// store, never as a wrong or stale result.
type CellStore interface {
	// Lookup resolves one cell: a cached result, a cached deterministic
	// skip, or ok=false (miss).
	Lookup(key CellKey, target, base int) (res *CellResult, skip *CheckpointSkip, ok bool)
	// StoreCell persists one completed cell.
	StoreCell(key CellKey, target, base int, res *CellResult)
	// StoreSkip persists one soft-skipped cell; implementations only
	// persist kinds that are pure functions of the cell's inputs.
	StoreSkip(key CellKey, target, base int, skip CheckpointSkip)
}

// ErrAborted is returned (wrapping the context error) by RunStudyContext
// when the study is cancelled. The partial *Study holding every
// completed cell is still returned alongside it.
var ErrAborted = errors.New("study aborted")

// testCampaignHook, when non-nil, is applied to every campaign before it
// runs (test hook for fault-tolerance coverage).
var testCampaignHook func(*Campaign)

// CellSeed derives the deterministic seed of one campaign cell from the
// study seed. It is a pure function of the cell identity — never of the
// cell's position in any schedule — which is what makes every cell
// relocatable: a shard worker, a fleet worker, or a retry of either
// reproduces the exact record the single-process study would have. The
// variant salts the study seed, so a paper cell's seed is unchanged.
func CellSeed(base int64, key CellKey) int64 {
	return cellSeed(base+int64(key.Variant), key.Prog, key.Level, key.Category)
}

// cellSeed derives a stable per-cell seed.
func cellSeed(base int64, prog string, level fault.Level, cat fault.Category) int64 {
	h := uint64(base)
	for _, ch := range prog {
		h = h*131 + uint64(ch)
	}
	h = h*131 + uint64(level)
	h = h*131 + uint64(cat)
	return int64(h & 0x7fffffffffffffff)
}

// label is the cell's identity column in progress lines.
func (k CellKey) label() string {
	return fmt.Sprintf("%-10s %-5s %-10s", k.Prog, k.Level, k.Category) + k.variantSuffix(" ")
}

// StudyCells resolves a study's cell list as RunStudy does: empty means
// CanonicalCells(programs, nil), and a cell whose program is not in the
// study or whose variant its level does not support is an error. Shard
// ownership and the reorder buffer both index into the result, so its
// order is part of the determinism contract.
func StudyCells(programs []*Program, keys []CellKey) ([]CellKey, error) {
	if len(keys) == 0 {
		keys = CanonicalCells(programs, nil)
	}
	inStudy := make(map[string]bool, len(programs))
	for _, p := range programs {
		inStudy[p.Name] = true
	}
	for _, key := range keys {
		if err := checkVariant(key.Level, key.Variant); err != nil {
			return nil, err
		}
		if !inStudy[key.Prog] {
			return nil, fmt.Errorf("study cell %v: program %q is not in the study", key, key.Prog)
		}
	}
	return keys, nil
}

// RunStudy runs every campaign cell of the study with a background
// context; see RunStudyContext.
func RunStudy(cfg StudyConfig) (*Study, error) {
	return RunStudyContext(context.Background(), cfg)
}

// RunStudyContext runs every campaign cell of the study in this process:
// RunStudyOn with the executor that runs each cell's Campaign.
func RunStudyContext(ctx context.Context, cfg StudyConfig) (*Study, error) {
	return RunStudyOn(ctx, cfg, campaignExecutor(cfg))
}

// Executor runs the cell jobs a study pass could not resolve by lookup.
// The study driver does everything else (lookups, the adaptive plan,
// checkpoint and warehouse writes, events), so a study's result is the
// same whichever executor ran its cells.
type Executor interface {
	// Width is how many of a pass's n jobs Run is given at once.
	Width(n int) int
	// Run executes one job under its cell (or extension) span: it sets
	// r.Res or r.Skip and returns what commit, which makes the outcome
	// durable, returns. A hard error fails the study. Once ctx is
	// cancelled, Run may withdraw the job: nil and no outcome.
	Run(ctx context.Context, r *Resolution, span trace.Span, commit func() error) error
}

// RunStudyOn runs every campaign cell of the study, handing each cell a
// lookup did not resolve to exec. Jobs are merged back in canonical
// order, so scheduling never changes results, progress order, or
// telemetry order; the first hard error cancels outstanding cells. Soft
// conditions — no candidates, no activated faults, a cell over its
// wall-clock deadline — skip the cell and keep the study alive.
//
// Cancelling ctx stops the study cooperatively: cells already running
// finish (and are checkpointed), queued cells are skipped, a study_abort
// event is emitted, and the partial study is returned together with an
// error wrapping ErrAborted so callers can still render what completed.
func RunStudyOn(ctx context.Context, cfg StudyConfig, exec Executor) (*Study, error) {
	keys, err := StudyCells(cfg.Programs, cfg.Cells)
	if err != nil {
		return nil, err
	}
	st := ProfileStudy(cfg.Programs, cfg.N, cfg.Seed)
	st.Adaptive = cfg.Adaptive

	shard := ""
	if cfg.Shard != nil {
		if err := cfg.Shard.Validate(); err != nil {
			return nil, err
		}
		shard = cfg.Shard.String()
		var owned []CellKey
		for i, key := range keys {
			if cfg.Shard.Owns(i) {
				owned = append(owned, key)
			}
		}
		keys = owned
	}

	emit(cfg.Events, telemetry.Event{
		Type: telemetry.EventStudyStart,
		N:    cfg.N, Seed: cfg.Seed, Cells: len(keys),
		Parallel: exec.Width(len(keys)), Shard: shard,
	})
	start := time.Now()
	root := cfg.Trace.Start(trace.KindCampaign, "study")
	finishRoot := func(outcome string) {
		root.Outcome = outcome
		root.Finish()
	}

	// results holds every cell's current record in canonical order: the
	// round-1 pass fills it and a finished extension replaces its entry.
	results := make([]*CellResult, len(keys))
	// conclude harvests every completed cell into the study and emits
	// the closing study_done or study_abort event.
	conclude := func(typ string, cause error) {
		attempts, activated := harvest(st, keys, results)
		ev := telemetry.Event{Type: typ, Cells: len(st.Cells), Attempts: attempts,
			Activated: activated, DurationMS: telemetry.Ms(time.Since(start))}
		if cause != nil {
			ev.Err = cause.Error()
		}
		if cfg.Replay != nil {
			ev.ReplayFields(cfg.Replay.Stats)
		}
		emit(cfg.Events, ev)
	}

	jobs := make([]*cellJob, len(keys))
	for i, key := range keys {
		jobs[i] = &cellJob{Resolution: Resolution{CellKey: key, Target: cfg.N, Base: cfg.N}, idx: i}
	}
	for round := 1; ; round++ {
		hard, cancelled := runPass(ctx, cfg, exec, jobs, root)
		for _, j := range jobs {
			if res, _ := j.Kept(); res != nil {
				results[j.idx] = res
			}
		}
		if hard != nil {
			finishRoot("failure")
			return nil, hard
		}
		if cancelled != nil {
			// Hand back the partial study (the checkpoint already holds
			// every completed cell and extension). The event stream is
			// flushed before and after the abort event: an aborting
			// process is the one most likely to exit without closing its
			// sinks, so both the buffered tail and the abort marker
			// itself must reach stable storage here.
			_ = telemetry.Flush(cfg.Events)
			conclude(telemetry.EventStudyAbort, cancelled)
			_ = telemetry.Flush(cfg.Events)
			finishRoot("aborted")
			return st, fmt.Errorf("%w: %v", ErrAborted, cancelled)
		}
		// Round 2 needs the complete round-1 state: a shard worker never
		// plans it; the -merge render does.
		if round > 1 || cfg.Adaptive == nil || cfg.Shard != nil {
			break
		}
		if jobs = extensionJobs(cfg, keys, results); len(jobs) == 0 {
			break
		}
	}
	conclude(telemetry.EventStudyDone, nil)
	finishRoot("done")
	return st, nil
}

// extensionJobs plans round 2 from the canonical-order round-1 records
// (nil for a skipped cell, which is neither donor nor recipient): the
// stratified reallocation of the activation budget early-stopped cells
// saved. It announces the plan and returns one job per recipient not
// yet at its raised target. The plan is a pure function of the round-1
// records, and an extension restarts the cell's seeded streams at the
// higher target, so its record equals a fresh fixed-target run's: a
// resumed, merged or fleet-run study reaches the identical final state.
func extensionJobs(cfg StudyConfig, keys []CellKey, results []*CellResult) []*cellJob {
	states := make([]adaptive.CellState, len(results))
	converged, recipients := 0, 0
	for i, res := range results {
		if res == nil {
			continue
		}
		counts, conv := res.round1State()
		states[i] = adaptive.CellState{Counts: counts, Converged: conv, Present: true}
		if conv {
			converged++
		}
	}
	plan := cfg.Adaptive.Reallocate(cfg.N, states)
	var jobs []*cellJob
	for i, g := range plan.Grants {
		if g <= 0 || results[i] == nil {
			continue
		}
		recipients++
		// A recipient already at its target is a resumed extension.
		if t := plan.BaseN + g; results[i].Adaptive.Target != t {
			jobs = append(jobs, &cellJob{Resolution: Resolution{CellKey: keys[i], Target: t,
				Base: plan.BaseN, Prior: results[i]}, idx: i})
		}
	}
	emit(cfg.Events, telemetry.Event{Type: telemetry.EventAdaptivePlan,
		AdaptiveSaved: plan.Saved, AdaptiveGranted: plan.Granted, AdaptiveLeftover: plan.Leftover,
		AdaptiveConvergedCells: converged, AdaptiveExtendedCells: recipients})
	return jobs
}

// cellJob is one unit of a study pass: a cell run to an activation
// target from an adaptive base. Round 1 runs every owned cell at
// (N, N); round 2 runs the plan's extensions at (BaseN+grant, BaseN)
// with the cell's round-1 record as prior. runPass fills the outcome.
type cellJob struct {
	Resolution
	idx int   // canonical cell position
	err error // the hard error that failed the job
}

// runPass runs one list of cell jobs: a job Lookup resolves is committed
// at once, and the rest go to the executor's pool. Progress lines and
// telemetry events are released through a reorder buffer, only for the
// completed prefix, so their order is the job order under any
// scheduling. Checkpoint writes happen at completion instead: durability
// must not wait for a slow earlier cell, and the checkpoint loader is
// order-independent. The first hard error cancels outstanding jobs.
//
// Returns (hard, cancelled): hard is the first hard error in job order,
// naming its cell; cancelled is the caller's context cancellation.
func runPass(ctx context.Context, cfg StudyConfig, exec Executor, jobs []*cellJob, root trace.Span) (hard, cancelled error) {
	var (
		mu      sync.Mutex
		done    = make([]bool, len(jobs))
		emitted int
	)
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for emitted < len(jobs) && done[emitted] {
			noteCell(cfg, jobs[emitted])
			emitted++
		}
	}
	var inFlight *obs.Gauge
	if cfg.Obs != nil {
		inFlight = cfg.Obs.CellsInFlight
	}
	rv := Resolver{Resume: cfg.Resume, Warehouse: cfg.Warehouse, Checkpoint: cfg.Checkpoint}
	var tasks []sched.Task
	for i, j := range jobs {
		i, j := i, j
		if rv.Lookup(&j.Resolution) {
			j.err = rv.Commit(&j.Resolution)
			finish(i)
			if j.err != nil {
				return fmt.Errorf("cell %v: %w", j.CellKey, j.err), nil
			}
			continue
		}
		tasks = append(tasks, func(ctx context.Context) error {
			inFlight.Inc()
			defer inFlight.Dec()
			defer finish(i)
			j.err = j.execute(ctx, cfg, exec, rv, root)
			return j.err // a hard error cancels the pool
		})
	}
	if err := sched.Run(ctx, exec.Width(len(tasks)), tasks); err != nil {
		for _, j := range jobs {
			if j.err != nil {
				return fmt.Errorf("cell %v: %w", j.CellKey, j.err), nil
			}
		}
		return nil, err // no job failed: the caller's context was cancelled
	}
	return nil, nil
}

// execute hands one job Lookup did not resolve to the executor, under a
// cell span (an extension span carrying the target for round 2) that
// closes with the job's outcome.
func (j *cellJob) execute(ctx context.Context, cfg StudyConfig, exec Executor, rv Resolver, root trace.Span) error {
	kind := trace.KindCell
	if j.Prior != nil {
		kind = trace.KindExtension
	}
	span := cfg.Trace.StartChild(kind, j.Lane(), root)
	if j.Prior != nil {
		span.Grant = j.Target
	}
	err := exec.Run(ctx, &j.Resolution, span, func() error { return rv.Commit(&j.Resolution) })
	switch {
	case err != nil:
		span.Outcome, span.Err = "failure", err.Error()
	case j.Abandoned():
		span.Outcome, span.Err = "abandoned", j.Skip.Err
	case j.Skip != nil:
		span.Outcome, span.Err = "skipped", j.Skip.Err
	case j.Res != nil:
		span.Outcome = "done"
	default:
		span.Outcome = "aborted"
	}
	span.Finish() // a no-op span when tracing is off
	return err
}

// campaignExecutor is the in-process executor: each job is one
// Campaign.Run on the study's bounded pool.
type campaignExecutor StudyConfig

// Width is the pool size: every job waits for a CPU, so it is clamped
// to sched.Budget() whatever the pass size.
func (x campaignExecutor) Width(int) int { return min(max(x.Parallel, 1), sched.Budget()) }

// Run runs the job's campaign, where a soft skip becomes its outcome,
// and commits the outcome. A campaign error is returned as is; a failed
// checkpoint append (typed *CheckpointWriteError, sticky in the writer)
// is returned by commit, since once durability is armed, a study that
// finished while the file silently stopped accumulating would poison
// the next -resume.
func (x campaignExecutor) Run(_ context.Context, r *Resolution, span trace.Span, commit func() error) error {
	cfg := StudyConfig(x)
	c := &Campaign{
		Level:         r.Level,
		Category:      r.Category,
		Variant:       r.Variant,
		N:             r.Target,
		Seed:          CellSeed(cfg.Seed, r.CellKey),
		Metrics:       &r.Metrics,
		SimFaultLimit: cfg.SimFaultLimit,
		Deadline:      cfg.CellDeadline,
		Replay:        cfg.Replay,
		Compiled:      cfg.Compiled,
		Obs:           cfg.Obs,
		Adaptive:      cfg.Adaptive,
		AdaptiveBase:  r.Base,
	}
	for _, p := range cfg.Programs {
		if p.Name == r.Prog {
			c.Prog = p
		}
	}
	// Traced attempts are released with the round-1 record; re-tracing an
	// extension's replayed prefix would duplicate them (tracing never
	// changes outcomes, so dropping it keeps the extension identical).
	if r.Prior == nil {
		c.TraceAttempts = cfg.TraceAttempts
	}
	if testCampaignHook != nil {
		testCampaignHook(c)
	}
	res, err := c.Run()
	if cfg.Obs != nil {
		cfg.Obs.CellSeconds.Observe((r.Metrics.ScanTime + r.Metrics.RunTime).Seconds())
	}
	if cfg.Trace != nil {
		emitPhaseSpans(cfg.Trace, span, r.Lane(), r.Metrics)
	}
	switch {
	case err == nil:
		r.Res = res
	case IsSoftSkip(err):
		skip := SkipOf(err)
		r.Skip = &skip
	default:
		return err
	}
	return commit()
}

// emitPhaseSpans reconstructs one cell's scan and run child spans from
// its timing metrics, so the timeline separates injector construction
// from the injection loop without instrumenting the attempt hot path.
func emitPhaseSpans(r *trace.Recorder, parent trace.Span, lane string, m CellMetrics) {
	end := time.Now().UnixNano()
	runStart := end - int64(m.RunTime)
	scanStart := runStart - int64(m.ScanTime)
	r.Emit(trace.Record{Trace: parent.TraceID(), Parent: parent.ID(),
		Kind: trace.KindScan, Name: lane, Start: scanStart, End: runStart})
	r.Emit(trace.Record{Trace: parent.TraceID(), Parent: parent.ID(),
		Kind: trace.KindRun, Name: lane, Start: runStart, End: end})
}

// harvest moves completed cell results into the study and totals them.
func harvest(st *Study, keys []CellKey, results []*CellResult) (attempts, activated int) {
	for i, key := range keys {
		if results[i] == nil {
			continue
		}
		st.Cells[key] = results[i]
		attempts += results[i].Attempts
		activated += results[i].Activated()
	}
	return attempts, activated
}

// IsSoftSkip reports whether a campaign error skips the cell rather
// than failing the study: no candidates (the paper's own near-zero cast
// cells), an exhausted activation budget, or the wall-clock watchdog.
// Fleet workers use the same classification so a soft-skipped cell is
// reported as a skip record instead of failing its lease.
func IsSoftSkip(err error) bool {
	return errors.Is(err, ErrNoCandidates) ||
		errors.Is(err, ErrNotActivated) ||
		errors.Is(err, ErrDeadline)
}

// noteCell releases one job's progress line and telemetry events. A
// failed job and a cancelled one resolved nothing and release nothing:
// the study is about to fail with the canonical first error (or the
// abort path). A job whose checkpoint append failed did resolve its
// cell, so it is released like any other.
func noteCell(cfg StudyConfig, j *cellJob) {
	if j.Res == nil && j.Skip == nil {
		return
	}
	cfg.progress(j.progressLine())
	if j.Res != nil && !j.Resumed && !j.Warehoused {
		from := 0
		if j.Prior != nil {
			// An extension's replayed round-1 prefix re-contains the
			// panics the round-1 record already released; only the
			// extension window's are new.
			from = j.Prior.Attempts
		}
		emitSimFaults(cfg, j.CellKey, j.Metrics.SimFaults, from)
		// Traced attempts are released here, through the same reorder
		// buffer as every other event, so attempt_trace order is
		// deterministic under any scheduling.
		for _, tr := range j.Metrics.Traces {
			ev := KeyEvent(telemetry.EventAttemptTrace, j.CellKey)
			ev.Attempt, ev.Trigger, ev.Outcome, ev.Spans = tr.Attempt, tr.Trigger, tr.Outcome.String(), tr.Spans
			emit(cfg.Events, ev)
		}
	}
	emit(cfg.Events, j.Event())
}

// progressLine is the job's progress line.
func (j *cellJob) progressLine() string {
	label, from := j.label(), ""
	switch {
	case j.Warehoused:
		from = "warehouse"
	case j.Resumed:
		from = "resumed from checkpoint"
	}
	switch {
	case j.Abandoned():
		return fmt.Sprintf("%s adaptive extension abandoned (%s); keeping round-1 record", label, j.Skip.Err)
	case j.Res != nil && from != "":
		return j.resultLine(j.Res, " ("+from+")")
	case j.Res != nil:
		return j.resultLine(j.Res, "")
	case from != "":
		return fmt.Sprintf("%s skipped (%s, %s)", label, j.Skip.Kind, from)
	case j.Skip.Kind == SkipDeadline:
		return label + " degraded (deadline exceeded, cell skipped)"
	case j.Skip.Kind == SkipNotActivated:
		return label + " skipped (no activated faults)"
	}
	return label + " skipped (no candidates)"
}

// emitSimFaults releases the sim_fault events of a cell's contained
// panics from attempt index from on.
func emitSimFaults(cfg StudyConfig, key CellKey, faults []SimFault, from int) {
	for _, sf := range faults {
		if sf.Attempt < from {
			continue
		}
		ev := KeyEvent(telemetry.EventSimFault, key)
		ev.Attempt, ev.AttemptSeed, ev.Panic = sf.Attempt, sf.Seed, sf.Panic
		emit(cfg.Events, ev)
	}
}

// progress releases one progress line.
func (cfg StudyConfig) progress(line string) {
	if cfg.Progress != nil {
		cfg.Progress(line)
	}
}

// resultLine is the progress line of one resolved cell; note says where
// the record came from.
func (k CellKey) resultLine(res *CellResult, note string) string {
	return fmt.Sprintf("%s activated=%d crash=%.1f%% sdc=%.1f%%%s%s", k.label(), res.Activated(),
		100*res.CrashRate().Rate(), 100*res.SDCRate().Rate(), note, adaptiveSuffix(res))
}

// KeyEvent is an event of type typ carrying one cell's identity.
func KeyEvent(typ string, key CellKey) telemetry.Event {
	return telemetry.Event{Type: typ, Benchmark: key.Prog, Level: key.Level.String(),
		Category: key.Category.String(), Variant: int(key.Variant)}
}

// CellEvent is the telemetry event of one resolved cell: its identity,
// outcome counts and adaptive fields.
func CellEvent(typ string, key CellKey, res *CellResult) telemetry.Event {
	ev := KeyEvent(typ, key)
	ev.Attempts, ev.Activated = res.Attempts, res.Activated()
	ev.Benign, ev.SDC, ev.Crash, ev.Hang = res.Benign, res.SDC, res.Crash, res.Hang
	ev.NotActivated, ev.SimFaults = res.NotActivated, res.SimFaults
	ev.AdaptiveTarget, ev.AdaptiveConverged = res.Adaptive.Target, res.Adaptive.Converged
	return ev
}

func emit(r telemetry.Recorder, e telemetry.Event) {
	if r != nil {
		r.Record(e)
	}
}

// ProfileStudy returns a study of the given programs with no campaign
// cells, only Table IV's dynamic candidate counts: sums over the
// programs' build-time golden profiles, executing nothing.
func ProfileStudy(programs []*Program, n int, seed int64) *Study {
	st := &Study{Programs: programs, N: n, Seed: seed,
		Cells: make(map[CellKey]*CellResult), Dyn: make(map[CellKey]uint64)}
	for _, p := range programs {
		st.profileProgram(p)
	}
	return st
}

// profileProgram fills Dyn for every (level, category) of one program
// from its build-time golden profiles.
func (st *Study) profileProgram(p *Program) {
	for _, cat := range fault.Categories {
		st.Dyn[CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat}] =
			p.irGolden().DynCount(llfi.Candidates(p.Prep, cat))
		st.Dyn[CellKey{Prog: p.Name, Level: fault.LevelASM, Category: cat}] =
			p.asmGolden().DynCount(pinfi.Candidates(p.Asm, cat))
	}
}

// Cell returns one campaign cell (nil if absent).
func (st *Study) Cell(prog string, level fault.Level, cat fault.Category) *CellResult {
	return st.Cells[CellKey{Prog: prog, Level: level, Category: cat}]
}

// DynCandidates returns a Table IV entry.
func (st *Study) DynCandidates(prog string, level fault.Level, cat fault.Category) uint64 {
	return st.Dyn[CellKey{Prog: prog, Level: level, Category: cat}]
}
