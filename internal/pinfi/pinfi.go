// Package pinfi implements the low-level fault injector of the study: a
// PINFI-style tool that profiles and corrupts programs at the assembly
// level (paper §IV), including the two activation heuristics of Figure 2:
// compare instructions are corrupted only in the flag bits their following
// conditional jump reads, and double-precision SSE destinations only in
// the low 64 bits of the XMM register.
package pinfi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"hlfi/internal/compile/mc"
	"hlfi/internal/fault"
	"hlfi/internal/machine"
	"hlfi/internal/telemetry"
	"hlfi/internal/x86"
)

// ErrNoCandidates reports a category with no dynamic injection targets.
var ErrNoCandidates = errors.New("pinfi: no dynamic candidates")

// Candidates marks the injectable machine instructions for a category,
// indexed by instruction position (paper Table III, right column).
func Candidates(p *x86.Program, cat fault.Category) []bool {
	out := make([]bool, len(p.Instrs))
	dep := machine.DependentFlagMasks(p)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch cat {
		case fault.CatAll:
			// Destination-register instructions, plus compares whose
			// flag bits feed a conditional jump.
			out[i] = in.HasRegDest() || dep[i] != 0
		case fault.CatArith:
			out[i] = in.Op.IsArith() && in.HasRegDest()
		case fault.CatCast:
			out[i] = in.Op.IsConvert() && in.HasRegDest()
		case fault.CatCmp:
			// "Instructions whose next instruction is a conditional
			// branch."
			out[i] = dep[i] != 0
		case fault.CatLoad:
			out[i] = isLoad(in)
		}
	}
	return out
}

// isLoad implements the Table III criterion: mov instructions with memory
// source and register destination (including the widening movs and SSE
// loads that real compilers emit for narrow and double loads).
func isLoad(in *x86.Instr) bool {
	switch in.Op {
	case x86.MOV, x86.MOVZX, x86.MOVSX:
		return in.Src.Kind == x86.OpMem && in.Dst.Kind == x86.OpReg
	case x86.MOVSD:
		return in.Src.Kind == x86.OpMem && in.Dst.Kind == x86.OpXmm
	default:
		return false
	}
}

// Injector runs single-fault injections for one (program, category) pair
// at the assembly level.
type Injector struct {
	Prog        *x86.Program
	LayoutImage []byte
	LayoutBase  uint64

	Cat        fault.Category
	Candidates []bool
	DynTotal   uint64

	// Golden is the fault-free run the injector classifies against,
	// shared by every view over the same program.
	Golden fault.Golden

	// Replay state (UseSnapshots): the golden-run snapshots indexed by
	// the candidate count each has passed, and the stats they feed.
	replay fault.Replay[*machine.Snapshot]
	stats  *telemetry.ReplayStats

	// compiled (UseCompiled), when non-nil, runs untraced attempts on the
	// pre-decoded dispatch engine instead of the simulator. Traced
	// attempts always use the simulator — the tracer is not compiled in.
	compiled *mc.Program
}

// UseCompiled arms the pre-decoded dispatch engine for untraced
// attempts. The compiled program must be built from the injector's own
// lowered program; outcomes stay byte-identical to the simulator.
func (j *Injector) UseCompiled(cp *mc.Program) { j.compiled = cp }

// CaptureSnapshots runs the golden execution once more with a snapshot
// sink armed and returns the captured snapshots in execution order. The
// run is deterministic, so the snapshots are consistent with any
// injector built over the same lowered program.
func CaptureSnapshots(prog *x86.Program, layoutImage []byte, layoutBase uint64, stride uint64) (snaps []*machine.Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			snaps, err = nil, fmt.Errorf("pinfi snapshot run panic: %v", r)
		}
	}()
	var out bytes.Buffer
	m := machine.New(prog, layoutImage, layoutBase, &out)
	m.Profile = make([]uint64, len(prog.Instrs))
	m.SnapshotEvery = stride
	m.SnapshotSink = func(s *machine.Snapshot) { snaps = append(snaps, s) }
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("pinfi snapshot run: %w", err)
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
func (j *Injector) UseSnapshots(snaps []*machine.Snapshot, stats *telemetry.ReplayStats) {
	j.replay = fault.NewReplay(snaps, j.Candidates)
	j.stats = stats
}

// RunGolden executes the program fault-free once with the profiler
// armed: the one golden run every injector over this program is a view
// of. An unexpected machine panic is converted to an error rather than
// crashing the caller.
func RunGolden(prog *x86.Program, layoutImage []byte, layoutBase uint64) (g fault.Golden, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = fault.Golden{}, fmt.Errorf("pinfi golden run panic: %v", r)
		}
	}()
	var out bytes.Buffer
	m := machine.New(prog, layoutImage, layoutBase, &out)
	m.Profile = make([]uint64, len(prog.Instrs))
	rc, err := m.Run()
	if err != nil {
		return fault.Golden{}, fmt.Errorf("pinfi golden run: %w", err)
	}
	return fault.Golden{Output: out.Bytes(), Exit: rc, Instrs: m.Executed(), Profile: m.Profile}, nil
}

// View builds an injector over an existing golden run and a candidate
// set without executing anything. The set must contain at least one
// dynamically executed instruction.
func View(prog *x86.Program, layoutImage []byte, layoutBase uint64, g fault.Golden, cat fault.Category, cands []bool) (*Injector, error) {
	inj := &Injector{
		Prog:        prog,
		LayoutImage: layoutImage,
		LayoutBase:  layoutBase,
		Cat:         cat,
		Candidates:  cands,
		DynTotal:    g.DynCount(cands),
		Golden:      g,
	}
	if inj.DynTotal == 0 {
		return nil, fmt.Errorf("%w (%s)", ErrNoCandidates, cat)
	}
	return inj, nil
}

// New profiles the program (RunGolden) and views it for the category.
// It is the self-contained entry point for one-off use; campaigns over
// a built program share its golden run through View instead.
func New(prog *x86.Program, layoutImage []byte, layoutBase uint64, cat fault.Category) (*Injector, error) {
	g, err := RunGolden(prog, layoutImage, layoutBase)
	if err != nil {
		return nil, err
	}
	return View(prog, layoutImage, layoutBase, g, cat, Candidates(prog, cat))
}

// Result is the outcome of one injected run.
type Result struct {
	Outcome   fault.Outcome
	Output    []byte
	Exit      int64
	Err       error
	Injection *machine.Injection

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

// InjectOne performs a single fault injection at a uniformly random
// dynamic candidate instance.
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

// InjectAt injects at a specific dynamic candidate index. When snapshots
// are armed, the attempt restores the latest snapshot at-or-before the
// trigger and replays only the residual tail; otherwise it re-executes
// from instruction zero. Both paths produce byte-identical results under
// the same rng.
func (j *Injector) InjectAt(trigger uint64, rng *rand.Rand) *Result {
	return j.injectAt(trigger, rng, false)
}

func (j *Injector) injectAt(trigger uint64, rng *rand.Rand, traced bool) *Result {
	injection := &machine.Injection{
		Candidates:   j.Candidates,
		TriggerIndex: trigger,
		Rng:          rng,
	}
	var tr *machine.Tracer
	if traced {
		tr = machine.NewTracer()
	}
	// Untraced attempts run on the compiled engine when armed; the
	// tracer is simulator-only instrumentation, so traced attempts stay
	// on the simulator (both are byte-identical).
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
			e := mc.NewFromSnapshot(j.compiled, s, &out)
			e.SetCandCount(base)
			e.MaxInstrs = budget
			e.Inject = injection
			e.Converge(later, j.Golden)
			rc, err = e.Resume()
			executed = e.Executed()
			end = telemetry.EndOf(e)
		} else {
			m := machine.NewFromSnapshot(j.Prog, s, &out)
			m.SetCandCount(base)
			m.MaxInstrs = budget
			m.Inject = injection
			m.Trace = tr
			rc, err = m.Resume()
			executed = m.Executed()
		}
		j.stats.Hit(s.Executed, executed-s.Executed)
	} else {
		if useCompiled {
			e := mc.New(j.compiled, &out)
			e.MaxInstrs = budget
			e.Inject = injection
			e.Converge(later, j.Golden)
			rc, err = e.Run()
			executed = e.Executed()
			end = telemetry.EndOf(e)
		} else {
			m := machine.New(j.Prog, j.LayoutImage, j.LayoutBase, &out)
			m.MaxInstrs = budget
			m.Inject = injection
			m.Trace = tr
			rc, err = m.Run()
			executed = m.Executed()
		}
		if j.replay.Snaps != nil {
			j.stats.Miss(executed)
		}
	}
	if useCompiled {
		j.stats.NoteCompiled(end)
	}
	res := &Result{Output: out.Bytes(), Exit: rc, Err: err, Injection: injection, Trigger: trigger, Executed: executed, End: end}
	res.Outcome = j.Golden.Classify(res.Output, res.Exit, err, err == machine.ErrHang, injection.Happened && injection.Activated)
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
