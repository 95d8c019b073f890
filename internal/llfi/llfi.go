// Package llfi implements the high-level fault injector of the study: an
// LLFI-style tool that profiles and corrupts programs at the IR level
// (paper §III). A campaign picks one dynamic execution of one candidate
// instruction uniformly at random and flips one random bit of its result.
package llfi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"hlfi/internal/compile/irc"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/telemetry"
)

// ErrNoCandidates reports a category with no dynamic injection targets.
var ErrNoCandidates = errors.New("llfi: no dynamic candidates")

// Candidates marks the injectable IR instructions for a category, indexed
// by instruction Seq. Per the paper, candidates must produce a value and
// have at least one use (the def-use chain activation filter of §IV), and
// the cast category is restricted to int/fp conversion casts (Table I
// row 5).
func Candidates(p *interp.Prepared, cat fault.Category) []bool {
	out := make([]bool, p.SeqTotal)
	for _, f := range p.Mod.Funcs {
		uses := ir.ComputeUses(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() || uses.NumUses(in) == 0 {
					continue
				}
				if inCategory(in, cat) {
					out[in.Seq] = true
				}
			}
		}
	}
	return out
}

func inCategory(in *ir.Instr, cat fault.Category) bool {
	switch cat {
	case fault.CatAll:
		return true
	case fault.CatArith:
		return in.Op.IsArith()
	case fault.CatCast:
		return in.Op.IsConvCast()
	case fault.CatCmp:
		return in.Op.IsCmp()
	case fault.CatLoad:
		return in.Op == ir.OpLoad
	default:
		return false
	}
}

// CandidatesFunc builds a candidate set from an arbitrary predicate — the
// "custom fault injection instruction and operand selector" of the
// paper's Figure 1, step 1. The def-use activation filter still applies:
// unusable results are never candidates.
func CandidatesFunc(p *interp.Prepared, keep func(*ir.Instr) bool) []bool {
	out := make([]bool, p.SeqTotal)
	for _, f := range p.Mod.Funcs {
		uses := ir.ComputeUses(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() || uses.NumUses(in) == 0 {
					continue
				}
				if keep(in) {
					out[in.Seq] = true
				}
			}
		}
	}
	return out
}

// Injector runs single-fault injection campaigns for one (program,
// category) pair at the IR level.
type Injector struct {
	Prep       *interp.Prepared
	Cat        fault.Category
	Candidates []bool
	// DynTotal is the dynamic candidate count under the golden profile.
	DynTotal uint64
	// Golden is the fault-free run the injector classifies against. It
	// is shared, never copied: every view over one program aliases the
	// same output and profile.
	Golden fault.Golden

	// Replay state (UseSnapshots): the golden-run snapshots indexed by
	// the candidate count each has passed, and the stats they feed.
	replay fault.Replay[*interp.Snapshot]
	stats  *telemetry.ReplayStats

	// compiled (UseCompiled), when non-nil, runs untraced attempts on the
	// compile-to-closure engine instead of the interpreter. Traced
	// attempts always use the interpreter — the tracer is not compiled in.
	compiled *irc.Program
}

// UseCompiled arms the compile-to-closure engine for untraced attempts.
// The compiled program must be built from the injector's own Prepared
// module; outcomes stay byte-identical to the interpreter.
func (j *Injector) UseCompiled(cp *irc.Program) { j.compiled = cp }

// CaptureSnapshots runs the golden execution once more with a snapshot
// sink armed and returns the captured snapshots in execution order. The
// run is deterministic, so the snapshots are consistent with any
// injector built over the same prepared program.
func CaptureSnapshots(p *interp.Prepared, stride uint64) (snaps []*interp.Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			snaps, err = nil, fmt.Errorf("llfi snapshot run panic: %v", r)
		}
	}()
	var out bytes.Buffer
	r := interp.NewRunner(p, &out)
	r.Profile = make([]uint64, p.SeqTotal)
	r.SnapshotEvery = stride
	r.SnapshotSink = func(s *interp.Snapshot) { snaps = append(snaps, s) }
	if _, err := r.Run(); err != nil {
		return nil, fmt.Errorf("llfi snapshot run: %w", err)
	}
	return snaps, nil
}

// UseSnapshots arms fast-forward replay: subsequent InjectAt calls
// restore the latest snapshot at-or-before their trigger and replay only
// the residual tail. With the compiled engine armed too, an attempt
// also ends early where its state rejoins a later snapshot (masking
// convergence, docs/replay.md). Outcomes, activation, and output stay
// byte-identical to full re-execution. stats (nil-safe) receives
// hit/miss and convergence accounting.
func (j *Injector) UseSnapshots(snaps []*interp.Snapshot, stats *telemetry.ReplayStats) {
	j.replay = fault.NewReplay(snaps, j.Candidates)
	j.stats = stats
}

// RunGolden executes the program fault-free once with the profiler
// armed: the one golden run every injector over this program is a view
// of. An unexpected interpreter panic is converted to an error rather
// than crashing the caller.
func RunGolden(p *interp.Prepared) (g fault.Golden, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = fault.Golden{}, fmt.Errorf("llfi golden run panic: %v", r)
		}
	}()
	var out bytes.Buffer
	r := interp.NewRunner(p, &out)
	r.Profile = make([]uint64, p.SeqTotal)
	rc, err := r.Run()
	if err != nil {
		return fault.Golden{}, fmt.Errorf("llfi golden run: %w", err)
	}
	return fault.Golden{Output: out.Bytes(), Exit: rc, Instrs: r.Executed(), Profile: r.Profile}, nil
}

// View builds an injector over an existing golden run and a candidate
// set (Candidates, CandidatesCalibrated, or CandidatesFunc) without
// executing anything. The set must contain at least one dynamically
// executed instruction.
func View(p *interp.Prepared, g fault.Golden, cat fault.Category, cands []bool) (*Injector, error) {
	inj := &Injector{Prep: p, Cat: cat, Candidates: cands, DynTotal: g.DynCount(cands), Golden: g}
	if inj.DynTotal == 0 {
		return nil, fmt.Errorf("%w (%s in %s)", ErrNoCandidates, cat, p.Mod.Name)
	}
	return inj, nil
}

// New profiles the program (RunGolden) and views it for the category.
// It is the self-contained entry point for one-off use; campaigns over
// a built program share its golden run through View instead.
func New(p *interp.Prepared, cat fault.Category) (*Injector, error) {
	g, err := RunGolden(p)
	if err != nil {
		return nil, err
	}
	return View(p, g, cat, Candidates(p, cat))
}

// Result is the outcome of one injected run.
type Result struct {
	Outcome   fault.Outcome
	Output    []byte
	Exit      int64
	Err       error
	Injection *interp.Injection

	// Trigger is the dynamic candidate index that was corrupted.
	Trigger uint64
	// Executed is the dynamic instruction count the run ended at, and
	// End how a compiled-engine run ended: at a convergence point or a
	// hang cycle, a compiled run ends short of the full run.
	Executed uint64
	End      telemetry.AttemptEnd
	// Spans is the fault-propagation skeleton (traced attempts only):
	// inject site, first tainted load/store/branch, and the outcome edge.
	Spans []telemetry.TraceSpan
}

// InjectOne performs a single fault injection: a uniformly random dynamic
// candidate instance, one random bit of its result.
func (j *Injector) InjectOne(rng *rand.Rand) *Result {
	trigger := uint64(rng.Int63n(int64(j.DynTotal)))
	return j.injectAt(trigger, rng, false)
}

// InjectOneTraced is InjectOne with fault-propagation tracing armed. The
// tracer is purely observational — it consumes no randomness and the
// outcome is byte-identical to the untraced draw.
func (j *Injector) InjectOneTraced(rng *rand.Rand) *Result {
	trigger := uint64(rng.Int63n(int64(j.DynTotal)))
	return j.injectAt(trigger, rng, true)
}

// InjectAt injects at a specific dynamic candidate index (tests and
// deterministic replay). When snapshots are armed, the attempt restores
// the latest snapshot at-or-before the trigger and replays the residual
// tail; otherwise it re-executes from instruction zero. Both paths
// produce byte-identical results under the same rng.
func (j *Injector) InjectAt(trigger uint64, rng *rand.Rand) *Result {
	return j.injectAt(trigger, rng, false)
}

func (j *Injector) injectAt(trigger uint64, rng *rand.Rand, traced bool) *Result {
	injection := &interp.Injection{
		Candidates:   j.Candidates,
		TriggerIndex: trigger,
		Rng:          rng,
	}
	var tr *interp.Tracer
	if traced {
		tr = interp.NewTracer(0) // spans only, no event log
	}
	// Untraced attempts run on the compiled engine when armed; the
	// tracer is interpreter-only instrumentation, so traced attempts
	// stay on the interpreter (both are byte-identical).
	useCompiled := j.compiled != nil && !traced
	budget := j.Golden.Budget()
	var out bytes.Buffer
	var rc int64
	var err error
	var executed uint64
	var end telemetry.AttemptEnd
	i, base := j.replay.Before(trigger)
	later := j.replay.Snaps[i+1:]
	if i >= 0 {
		s := j.replay.Snaps[i]
		out.Write(j.Golden.Output[:s.OutLen])
		if useCompiled {
			r := irc.NewRunnerFromSnapshot(j.compiled, s, &out)
			r.SetCandCount(base)
			r.MaxInstrs = budget
			r.Inject = injection
			r.Converge(later, j.Golden)
			rc, err = r.Resume()
			executed = r.Executed()
			end = telemetry.EndOf(r)
		} else {
			r := interp.NewRunnerFromSnapshot(j.Prep, s, &out)
			r.SetCandCount(base)
			r.MaxInstrs = budget
			r.Inject = injection
			r.Trace = tr
			rc, err = r.Resume()
			executed = r.Executed()
		}
		j.stats.Hit(s.Executed, executed-s.Executed)
	} else {
		if useCompiled {
			r := irc.NewRunner(j.compiled, &out)
			r.MaxInstrs = budget
			r.Inject = injection
			r.Converge(later, j.Golden)
			rc, err = r.Run()
			executed = r.Executed()
			end = telemetry.EndOf(r)
		} else {
			r := interp.NewRunner(j.Prep, &out)
			r.MaxInstrs = budget
			r.Inject = injection
			r.Trace = tr
			rc, err = r.Run()
			executed = r.Executed()
		}
		if j.replay.Snaps != nil {
			j.stats.Miss(executed)
		}
	}
	if useCompiled {
		j.stats.NoteCompiled(end)
	}
	res := &Result{Output: out.Bytes(), Exit: rc, Err: err, Injection: injection, Trigger: trigger, Executed: executed, End: end}
	res.Outcome = j.Golden.Classify(res.Output, res.Exit, err, err == interp.ErrHang, injection.Happened && injection.Activated)
	if tr != nil {
		for _, s := range tr.Spans {
			res.Spans = append(res.Spans, telemetry.TraceSpan{Kind: s.Kind, Site: s.Site, At: s.At})
		}
		res.Spans = append(res.Spans, telemetry.TraceSpan{
			Kind: "outcome", Site: res.Outcome.String(), At: executed,
		})
	}
	return res
}
