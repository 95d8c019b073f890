package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/compile/irc"
	"hlfi/internal/compile/mc"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/llfi"
	"hlfi/internal/machine"
	"hlfi/internal/obs"
	"hlfi/internal/pinfi"
	"hlfi/internal/stats"
	"hlfi/internal/telemetry"
)

// ErrNoCandidates is returned when a (program, level, category) cell has
// no dynamic injection opportunities (e.g. an all-integer program has no
// convert instructions at the assembly level, matching the near-zero cast
// counts the paper reports for bzip2 and mcf).
var ErrNoCandidates = errors.New("no dynamic injection candidates")

// ErrNotActivated is returned when the attempt budget runs out before a
// single fault activates. Like ErrNoCandidates it is a soft condition —
// the scheduler and checkpoint layer treat it as a skipped cell, not a
// hard study failure.
var ErrNotActivated = errors.New("no activated faults")

// maxAttemptsFactor bounds re-draws of non-activated faults: a cell
// stops after N*maxAttemptsFactor attempts, activated or not.
const maxAttemptsFactor = 10

// Campaign configures one (program, level, category) fault-injection cell
// of the study.
type Campaign struct {
	Prog     *Program
	Level    fault.Level
	Category fault.Category
	// N is the number of *activated* injections to collect (the paper
	// collects 1000 per cell).
	N int
	// Seed makes the campaign deterministic.
	Seed int64
	// Variant selects the injector beyond (Level, Category): the zero
	// value is the paper's, VariantCalibrated (IR only) applies the
	// paper's §VII discrepancy-resolution heuristics to the candidate
	// set. Seed is taken as given; the study derives it per variant.
	Variant Variant
	// Replay, when non-nil, arms golden-run snapshot fast-forward replay
	// for every injection attempt. Shared across cells: the snapshot
	// cache behind it is keyed by (program, level). Results are
	// byte-identical with or without it.
	Replay *ReplayConfig
	// Compiled, when non-nil, runs untraced injection attempts on the
	// compiled execution engines instead of the interpreters. Shared
	// across cells like Replay: the compiled-program cache behind it is
	// keyed by (program, level). Results are byte-identical with or
	// without it; programs the compilers cannot lower silently stay on
	// the interpreter.
	Compiled *CompiledConfig
	// Metrics, when non-nil, is filled with per-cell timing telemetry by
	// Run. It is kept out of CellResult so results stay comparable across
	// runs (timing never is).
	Metrics *CellMetrics
	// SimFaultLimit is the panic-containment policy: a simulator panic
	// during an injection attempt is recovered into a SimFault record
	// instead of crashing the process. 0 (the default) is fail-fast —
	// the first contained panic fails the cell with a *SimFaultError;
	// K > 0 tolerates up to K sim faults per cell; a negative limit
	// tolerates any number.
	SimFaultLimit int
	// Deadline, when positive, is the per-cell wall-clock watchdog: a
	// campaign still running after this long fails with a
	// *DeadlineError. It complements the instruction-budget hang
	// detection inside the simulators, which bounds single attempts.
	Deadline time.Duration
	// Obs, when non-nil, receives the live attempt metrics: attempt,
	// activation, outcome and sim-fault counters and the attempt-latency
	// histogram, for every attempt but an extension's replayed round-1
	// prefix. Purely observational — attempts, outcomes, and random
	// streams are identical with or without it.
	Obs *obs.Metrics
	// Adaptive, when non-nil, arms the group-sequential early-stopping
	// rule: the cell ends as soon as every outcome-rate Wilson 95%
	// half-width is <= Eps (at the configured cadence and minimum-n
	// floor), even if fewer than N faults have activated. The decision
	// is a pure function of the attempt-record prefix, so adaptive cells
	// stay deterministic and relocatable across shards and fleet leases.
	Adaptive *adaptive.Config
	// AdaptiveBase, when positive and smaller than N, marks this run as
	// a round-2 extension: N is the reallocated target, AdaptiveBase the
	// study's round-1 budget. The run replays the identical attempt
	// prefix (seeded streams are position-pure) and snapshots the
	// round-1 counts when it crosses the boundary, so a resumed or
	// merged study can recompute the same reallocation plan from the
	// extended record alone.
	AdaptiveBase int
	// TraceAttempts, when positive, arms fault-propagation tracing for
	// the first TraceAttempts attempts of the cell. Traced attempts are
	// byte-identical to untraced ones (the tracer consumes no
	// randomness); their propagation skeletons land in
	// CellMetrics.Traces.
	TraceAttempts int
	// injectorOverride, when non-nil, replaces the level-derived
	// injector (test hook for fault-tolerance coverage).
	injectorOverride func() (func(*rand.Rand) fault.Outcome, uint64, error)
}

// attemptResult is one injection attempt's outcome plus the optional
// propagation trace, and the injector's whole result for
// testAttemptHook.
type attemptResult struct {
	outcome fault.Outcome
	trigger uint64
	spans   []telemetry.TraceSpan
	ir      *llfi.Result
	asm     *pinfi.Result
}

// testAttemptHook, when non-nil, sees every attempt of every campaign
// that does not panic: the campaign, the attempt index, the random
// values the attempt drew in order, and its result (test hook for the
// per-attempt reference oracle).
var testAttemptHook func(c *Campaign, attempt int, draws []uint64, ar attemptResult)

// drawLog is a random source that records every value it hands out, so
// that testAttemptHook can replay an attempt's draws.
type drawLog struct {
	src   rand.Source64
	draws []uint64
}

func (d *drawLog) Int63() int64 {
	v := d.src.Int63()
	d.draws = append(d.draws, uint64(v))
	return v
}

func (d *drawLog) Uint64() uint64 {
	v := d.src.Uint64()
	d.draws = append(d.draws, v)
	return v
}

func (d *drawLog) Seed(seed int64) { d.src.Seed(seed) }

// AttemptTrace is the recorded fault-propagation skeleton of one traced
// attempt: the corrupted dynamic candidate index, the outcome, and the
// inject/load/store/branch/outcome spans.
type AttemptTrace struct {
	Attempt int
	Trigger uint64
	Outcome fault.Outcome
	Spans   []telemetry.TraceSpan
}

// CellMetrics is the per-cell timing record behind the campaign
// telemetry stream.
type CellMetrics struct {
	// ScanTime covers injector construction: the candidate scan plus
	// replay/compiled arming. It includes no golden execution — the
	// injector is a view over the Program's build-time golden run — but
	// the first cell of a program pays for snapshot capture and
	// compilation, which the replay and compiled caches then share.
	ScanTime time.Duration
	// RunTime covers the injection loop.
	RunTime time.Duration
	// SimFaults holds the contained-panic records of the cell, in
	// attempt order. Like timing it is kept out of CellResult (which
	// only counts them) so results stay comparable across runs.
	SimFaults []SimFault
	// Traces holds the propagation skeletons of traced attempts
	// (Campaign.TraceAttempts), in attempt order. Like SimFaults it is
	// kept out of CellResult so results stay comparable across runs.
	Traces []AttemptTrace
}

func (c *Campaign) noteMetrics(scan, run time.Duration, faults []SimFault, traces []AttemptTrace) {
	if c.Metrics != nil {
		*c.Metrics = CellMetrics{ScanTime: scan, RunTime: run, SimFaults: faults, Traces: traces}
	}
}

// noteAttempt feeds one finished attempt into the live metrics.
func (c *Campaign) noteAttempt(start time.Time, o fault.Outcome, simFault bool) {
	m := c.Obs
	if m == nil {
		return
	}
	m.Attempts.Inc()
	m.AttemptSeconds.Observe(time.Since(start).Seconds())
	if simFault {
		m.SimFaults.Inc()
		return
	}
	m.Outcome(o.String()).Inc()
	if o != fault.OutcomeNotActivated {
		m.Activated.Inc()
	}
}

// CellResult aggregates one campaign cell.
type CellResult struct {
	Prog     string
	Level    fault.Level
	Category fault.Category

	Benign       int
	SDC          int
	Crash        int
	Hang         int
	NotActivated int
	Attempts     int
	// SimFaults counts attempts whose simulator panicked and was
	// contained. They consume attempt budget but are excluded from the
	// paper's outcome taxonomy (and so from Activated).
	SimFaults int

	// DynCandidates is the dynamic injection-opportunity count for the
	// cell (the rows of Table IV).
	DynCandidates uint64

	// Adaptive records how the early-stopping engine treated the cell
	// (zero value for fixed-n runs). Value types only: CellResult must
	// stay ==-comparable for the differential oracles.
	Adaptive AdaptiveCell
}

// Activated is the number of runs counted in the outcome percentages.
func (c *CellResult) Activated() int { return c.Benign + c.SDC + c.Crash + c.Hang }

// SDCRate returns the SDC proportion among activated faults.
func (c *CellResult) SDCRate() stats.Proportion {
	return stats.Proportion{Successes: c.SDC, Trials: c.Activated()}
}

// CrashRate returns the crash proportion among activated faults.
func (c *CellResult) CrashRate() stats.Proportion {
	return stats.Proportion{Successes: c.Crash, Trials: c.Activated()}
}

// BenignRate returns the benign proportion among activated faults.
func (c *CellResult) BenignRate() stats.Proportion {
	return stats.Proportion{Successes: c.Benign, Trials: c.Activated()}
}

// HangRate returns the hang proportion among activated faults.
func (c *CellResult) HangRate() stats.Proportion {
	return stats.Proportion{Successes: c.Hang, Trials: c.Activated()}
}

func (c *CellResult) add(o fault.Outcome) {
	switch o {
	case fault.OutcomeBenign:
		c.Benign++
	case fault.OutcomeSDC:
		c.SDC++
	case fault.OutcomeCrash:
		c.Crash++
	case fault.OutcomeHang:
		c.Hang++
	case fault.OutcomeNotActivated:
		c.NotActivated++
	}
}

// injector builds the level-appropriate injector and returns a draw
// function (one injection using the supplied rng, optionally traced)
// plus the dynamic candidate count. The injector is a view over the
// Program's build-time golden run, so construction executes nothing:
// its cost — the candidate scan plus replay/compiled arming — is what
// CellMetrics.ScanTime measures.
func (c *Campaign) injector() (func(*rand.Rand, bool) attemptResult, uint64, error) {
	if err := checkVariant(c.Level, c.Variant); err != nil {
		return nil, 0, err
	}
	if c.injectorOverride != nil {
		draw, dyn, err := c.injectorOverride()
		if err != nil {
			return nil, 0, err
		}
		return func(rng *rand.Rand, _ bool) attemptResult {
			return attemptResult{outcome: draw(rng)}
		}, dyn, nil
	}
	switch c.Level {
	case fault.LevelIR:
		inj, err := c.irView()
		if err != nil {
			return nil, 0, err
		}
		return func(rng *rand.Rand, traced bool) attemptResult {
			var r *llfi.Result
			if traced {
				r = inj.InjectOneTraced(rng)
			} else {
				r = inj.InjectOne(rng)
			}
			return attemptResult{outcome: r.Outcome, trigger: r.Trigger, spans: r.Spans, ir: r}
		}, inj.DynTotal, nil
	case fault.LevelASM:
		inj, err := c.asmView()
		if err != nil {
			return nil, 0, err
		}
		return func(rng *rand.Rand, traced bool) attemptResult {
			var r *pinfi.Result
			if traced {
				r = inj.InjectOneTraced(rng)
			} else {
				r = inj.InjectOne(rng)
			}
			return attemptResult{outcome: r.Outcome, trigger: r.Trigger, spans: r.Spans, asm: r}
		}, inj.DynTotal, nil
	default:
		return nil, 0, fmt.Errorf("campaign: unknown level %v", c.Level)
	}
}

// irView builds the cell's LLFI injector over the Program's IR golden
// run and arms replay and the compiled engine.
func (c *Campaign) irView() (*llfi.Injector, error) {
	p := c.Prog
	var cands []bool
	if c.Variant == VariantCalibrated {
		cands = llfi.CandidatesCalibrated(p.Prep, c.Category, llfi.FullCalibration())
	} else {
		cands = llfi.Candidates(p.Prep, c.Category)
	}
	inj, err := llfi.View(p.Prep, p.irGolden(), c.Category, cands)
	if err != nil {
		return nil, err
	}
	if err := arm(c, irTools, inj.Golden, inj); err != nil {
		return nil, err
	}
	return inj, nil
}

// asmView builds the cell's PINFI injector over the Program's assembly
// golden run and arms replay and the compiled engine.
func (c *Campaign) asmView() (*pinfi.Injector, error) {
	p := c.Prog
	inj, err := pinfi.View(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, p.asmGolden(),
		c.Category, pinfi.Candidates(p.Asm, c.Category))
	if err != nil {
		return nil, err
	}
	if err := arm(c, asmTools, inj.Golden, inj); err != nil {
		return nil, err
	}
	return inj, nil
}

// levelTools is one level's snapshot capture and compiler: the steps
// the replay and compiled caches run once per (program, level).
type levelTools[S snapshot, C any] struct {
	level   fault.Level
	capture func(p *Program, stride uint64) ([]S, error)
	compile func(p *Program) (C, error)
}

var (
	irTools = levelTools[*interp.Snapshot, *irc.Program]{
		level: fault.LevelIR,
		capture: func(p *Program, stride uint64) ([]*interp.Snapshot, error) {
			return llfi.CaptureSnapshots(p.Prep, stride)
		},
		compile: func(p *Program) (*irc.Program, error) { return irc.Compile(p.Prep) },
	}
	asmTools = levelTools[*machine.Snapshot, *mc.Program]{
		level: fault.LevelASM,
		capture: func(p *Program, stride uint64) ([]*machine.Snapshot, error) {
			return pinfi.CaptureSnapshots(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, stride)
		},
		compile: func(p *Program) (*mc.Program, error) {
			return mc.Compile(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base)
		},
	}
)

// armable is the arming surface llfi.Injector and pinfi.Injector
// share.
type armable[S, C any] interface {
	UseSnapshots([]S, *telemetry.ReplayStats)
	UseCompiled(C)
}

// arm wires the campaign's replay snapshots and compiled engine into a
// freshly built injector over golden g, inside ScanTime. A program the
// compiler cannot lower is not an error: the injector stays on the
// reference engine, and the cache counts the fallback.
func arm[S snapshot, C any](c *Campaign, t levelTools[S, C], g fault.Golden, inj armable[S, C]) error {
	if c.Replay != nil {
		snaps, err := cachedSnapshots(c.Replay, c.Prog, t, g.Instrs)
		if err != nil {
			return err
		}
		inj.UseSnapshots(snaps, c.Replay.Stats)
	}
	if c.Compiled != nil {
		if cp, ok := cachedProgram(c.Compiled, c.Prog, t); ok {
			inj.UseCompiled(cp)
		}
	}
	return nil
}

// wrapNoCandidates maps the injector-level sentinel errors onto the
// campaign-level one.
func wrapNoCandidates(err error) error {
	if errors.Is(err, llfi.ErrNoCandidates) || errors.Is(err, pinfi.ErrNoCandidates) {
		return fmt.Errorf("%w: %v", ErrNoCandidates, err)
	}
	return err
}

// Run executes the campaign: it keeps injecting until N activated faults
// have been observed (non-activated draws are excluded and redrawn, per
// the paper's activated-fault accounting) or the attempt budget runs out.
// A panicking attempt is contained per SimFaultLimit; a cell running
// past Deadline fails with a *DeadlineError.
//
// Every attempt draws from one random stream seeded with Seed, in
// attempt order: the cell's sample is a pure function of (Seed, N), the
// committed study outputs are this stream, and a contained panic is
// reproduced by replaying it up to the failing attempt.
func (c *Campaign) Run() (*CellResult, error) {
	if c.N <= 0 {
		return nil, fmt.Errorf("campaign: N must be positive")
	}
	maxAttempts := c.N * maxAttemptsFactor
	src := rand.NewSource(c.Seed)
	var rec *drawLog
	if testAttemptHook != nil {
		rec = &drawLog{src: src.(rand.Source64)}
		src = rec
	}
	rng := rand.New(src)
	res := &CellResult{Prog: c.Prog.Name, Level: c.Level, Category: c.Category}
	ad := c.adaptiveState(res)

	scanStart := time.Now()
	draw, dyn, err := c.injector()
	if err != nil {
		return nil, wrapNoCandidates(err)
	}
	scan := time.Since(scanStart)
	res.DynCandidates = dyn
	var faults []SimFault
	var traces []AttemptTrace
	loopStart := time.Now()
	for res.Activated() < c.N && res.Attempts < maxAttempts {
		if c.deadlineExceeded(loopStart) {
			c.noteMetrics(scan, time.Since(loopStart), faults, traces)
			return nil, c.deadlineError(res, time.Since(loopStart))
		}
		attempt := res.Attempts
		res.Attempts++
		var start time.Time
		if c.Obs != nil {
			start = time.Now()
		}
		ar, sf := c.safeDraw(draw, rng, attempt, attempt < c.TraceAttempts)
		if ad == nil || ad.captured { // round 1 counted a replayed prefix
			c.noteAttempt(start, ar.outcome, sf != nil)
		}
		if rec != nil {
			if sf == nil {
				testAttemptHook(c, attempt, rec.draws, ar)
			}
			rec.draws = nil
		}
		if sf != nil {
			res.SimFaults++
			faults = append(faults, *sf)
			if !tolerates(c.SimFaultLimit, res.SimFaults) {
				c.noteMetrics(scan, time.Since(loopStart), faults, traces)
				return nil, &SimFaultError{Fault: *sf, Limit: c.SimFaultLimit}
			}
			if ad.note(res) {
				break
			}
			continue
		}
		if len(ar.spans) > 0 {
			traces = append(traces, AttemptTrace{
				Attempt: attempt, Trigger: ar.trigger, Outcome: ar.outcome, Spans: ar.spans,
			})
		}
		res.add(ar.outcome)
		if ad.note(res) {
			break
		}
	}
	c.noteMetrics(scan, time.Since(loopStart), faults, traces)
	if res.Activated() == 0 {
		return nil, fmt.Errorf("campaign %s/%s/%s: %w in %d attempts",
			c.Prog.Name, c.Level, c.Category, ErrNotActivated, res.Attempts)
	}
	return res, nil
}

// safeDraw runs one injection attempt behind a recovery boundary: an
// unexpected simulator panic is converted into a SimFault record
// (carrying the campaign seed that reproduces it) instead of taking
// down the process.
func (c *Campaign) safeDraw(draw func(*rand.Rand, bool) attemptResult, rng *rand.Rand, attempt int, traced bool) (ar attemptResult, sf *SimFault) {
	defer func() {
		if r := recover(); r != nil {
			f := c.simFault(attempt, r)
			sf = &f
		}
	}()
	return draw(rng, traced), nil
}
