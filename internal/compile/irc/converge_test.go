package irc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hlfi/internal/codegen"
	"hlfi/internal/compile/irc"
	"hlfi/internal/compile/mc"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/llfi"
	"hlfi/internal/machine"
	"hlfi/internal/minic"
	"hlfi/internal/pinfi"
	"hlfi/internal/x86"
)

// The masking-convergence exactness tests run one program per scenario
// at both levels: the reference engine to the end, and the compiled
// engine with every golden snapshot armed. The fault goes into site,
// which main calls once before a loop carrying eight values, so every
// back edge retires a phi bundle and the loop's calls overwrite the
// scratch registers site leaves behind. The first %s is site and any
// helper it needs, the second a statement main runs before calling
// site. site is never inlined, because it always calls something.
const convProgram = `
int g = 1;
long g2 = 0;
long *pa;
long *pb;
long *nul;
long mix(long a, long b) { long x = a * 31 + b; long y = x ^ (x >> 3); long z = y + a * b; return z - (z >> 5) + (y & 255) - (x | 7); }
long deep(long k) { long buf[1024]; buf[k] = 0; free(nul); return 0; }
%s
int main() {
    pa = (long*)malloc(16L);
    pb = (long*)malloc(16L);
    %s
    site();
    long s0 = 1; long s1 = 2; long s2 = 3; long s3 = 4; long s4 = 5; long s5 = 6; long s6 = 7; long s7 = 8;
    for (long i = 0; i < 120; i++) {
        s0 = mix(s0, i); s1 = s1 + s0; s2 = s2 ^ s1; s3 = s3 + (s2 & 15);
        s4 = mix(s4, s3); s5 = s5 - s4; s6 = s6 + (s5 >> 2); s7 = s7 ^ s6;
    }
    print_long(s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7);
    print_char(10);
    return 0;
}`

// convResult is what an attempt must reproduce exactly, plus the
// compiled engine's convergence and hang-cycle verdicts.
type convResult struct {
	outcome   fault.Outcome
	out       string
	exit      int64
	err       string
	record    string // injection record and the post-run RNG draw
	happened  bool
	activated bool
	executed  uint64
	golden    uint64 // the golden run's length
	converged bool
	cycled    bool
}

// convInject is one attempt's fault: the candidate set, the trigger
// counted from the start point, the seed of the bit draw, and whether
// the record starts out activated (the control that shows a state does
// rejoin).
type convInject struct {
	cands     []bool
	trigger   uint64
	seed      int64
	activated bool
}

// irProg is a program at IR level with its golden run and snapshots.
type irProg struct {
	prep  *interp.Prepared
	cp    *irc.Program
	g     fault.Golden
	snaps []*interp.Snapshot
}

// newIRProg runs the golden execution within maxInstrs, then captures
// its snapshots every stride(golden length) instructions. ok is false
// when the program does not compile or its golden run fails.
func newIRProg(prep *interp.Prepared, maxInstrs uint64, stride func(uint64) uint64) (p *irProg, ok bool) {
	cp, err := irc.Compile(prep)
	if err != nil {
		return nil, false
	}
	var out bytes.Buffer
	r := interp.NewRunner(prep, &out)
	r.MaxInstrs = maxInstrs
	rc, err := r.Run()
	if err != nil {
		return nil, false
	}
	p = &irProg{prep: prep, cp: cp, g: fault.Golden{Output: out.Bytes(), Exit: rc, Instrs: r.Executed()}}
	// The capture run writes to a buffer, as the injectors' does, so
	// that every snapshot records its output length.
	var capOut bytes.Buffer
	c := interp.NewRunner(prep, &capOut)
	c.Profile = make([]uint64, prep.SeqTotal)
	c.SnapshotEvery = stride(p.g.Instrs)
	c.SnapshotSink = func(s *interp.Snapshot) { p.snaps = append(p.snaps, s) }
	c.Run()
	return p, true
}

// attempt runs one attempt from golden snapshot start (from scratch
// when start is -1) on the interpreter and on irc, with the golden
// output up to the start point written ahead and, on irc, the later
// snapshots armed for convergence.
func (p *irProg) attempt(start int, budget uint64, fi convInject) (ref, fast convResult) {
	run := func(compiled bool) (res convResult) {
		var out bytes.Buffer
		var s *interp.Snapshot
		var base uint64
		if start >= 0 {
			s = p.snaps[start]
			base = s.CandCount(fi.cands)
			out.Write(p.g.Output[:s.OutLen])
		}
		inj := &interp.Injection{Candidates: fi.cands, TriggerIndex: base + fi.trigger, Rng: rand.New(rand.NewSource(fi.seed)), Activated: fi.activated}
		var rc int64
		var err error
		if compiled {
			r := irc.NewRunner(p.cp, &out)
			if s != nil {
				r = irc.NewRunnerFromSnapshot(p.cp, s, &out)
			}
			r.SetCandCount(base)
			r.MaxInstrs, r.Inject = budget, inj
			r.Converge(p.snaps[start+1:], p.g)
			if s != nil {
				rc, err = r.Resume()
			} else {
				rc, err = r.Run()
			}
			res.executed, res.converged, res.cycled = r.Executed(), r.Converged(), r.Cycled()
		} else {
			r := interp.NewRunner(p.prep, &out)
			if s != nil {
				r = interp.NewRunnerFromSnapshot(p.prep, s, &out)
			}
			r.SetCandCount(base)
			r.MaxInstrs, r.Inject = budget, inj
			if s != nil {
				rc, err = r.Resume()
			} else {
				rc, err = r.Run()
			}
			res.executed = r.Executed()
		}
		res.outcome = p.g.Classify(out.Bytes(), rc, err, err == interp.ErrHang, inj.Happened && inj.Activated)
		res.out, res.exit, res.err, res.happened, res.activated = out.String(), rc, fmt.Sprint(err), inj.Happened, inj.Activated
		res.golden = p.g.Instrs
		res.record = fmt.Sprint(inj.Happened, inj.Activated, inj.Target, inj.Bit, inj.OrigVal, inj.FaultyVal, inj.InstrIndex, inj.Rng.Int63())
		return res
	}
	return run(false), run(true)
}

// asmProg is a program at machine level with its golden run and
// snapshots.
type asmProg struct {
	asm   *x86.Program
	img   []byte
	base  uint64
	cp    *mc.Program
	g     fault.Golden
	snaps []*machine.Snapshot
}

// newASMProg is newIRProg at machine level.
func newASMProg(asm *x86.Program, img []byte, base uint64, maxInstrs uint64, stride func(uint64) uint64) (p *asmProg, ok bool) {
	cp, err := mc.Compile(asm, img, base)
	if err != nil {
		return nil, false
	}
	var out bytes.Buffer
	m := machine.New(asm, img, base, &out)
	m.MaxInstrs = maxInstrs
	rc, err := m.Run()
	if err != nil {
		return nil, false
	}
	p = &asmProg{asm: asm, img: img, base: base, cp: cp, g: fault.Golden{Output: out.Bytes(), Exit: rc, Instrs: m.Executed()}}
	var capOut bytes.Buffer
	c := machine.New(asm, img, base, &capOut)
	c.Profile = make([]uint64, len(asm.Instrs))
	c.SnapshotEvery = stride(p.g.Instrs)
	c.SnapshotSink = func(s *machine.Snapshot) { p.snaps = append(p.snaps, s) }
	c.Run()
	return p, true
}

// attempt is irProg.attempt on the simulator and on mc.
func (p *asmProg) attempt(start int, budget uint64, fi convInject) (ref, fast convResult) {
	run := func(compiled bool) (res convResult) {
		var out bytes.Buffer
		var s *machine.Snapshot
		var base uint64
		if start >= 0 {
			s = p.snaps[start]
			base = s.CandCount(fi.cands)
			out.Write(p.g.Output[:s.OutLen])
		}
		inj := &machine.Injection{Candidates: fi.cands, TriggerIndex: base + fi.trigger, Rng: rand.New(rand.NewSource(fi.seed)), Activated: fi.activated}
		var rc int64
		var err error
		if compiled {
			e := mc.New(p.cp, &out)
			if s != nil {
				e = mc.NewFromSnapshot(p.cp, s, &out)
			}
			e.SetCandCount(base)
			e.MaxInstrs, e.Inject = budget, inj
			e.Converge(p.snaps[start+1:], p.g)
			if s != nil {
				rc, err = e.Resume()
			} else {
				rc, err = e.Run()
			}
			res.executed, res.converged, res.cycled = e.Executed(), e.Converged(), e.Cycled()
		} else {
			m := machine.New(p.asm, p.img, p.base, &out)
			if s != nil {
				m = machine.NewFromSnapshot(p.asm, s, &out)
			}
			m.SetCandCount(base)
			m.MaxInstrs, m.Inject = budget, inj
			if s != nil {
				rc, err = m.Resume()
			} else {
				rc, err = m.Run()
			}
			res.executed = m.Executed()
		}
		res.outcome = p.g.Classify(out.Bytes(), rc, err, err == machine.ErrHang, inj.Happened && inj.Activated)
		res.out, res.exit, res.err, res.happened, res.activated = out.String(), rc, fmt.Sprint(err), inj.Happened, inj.Activated
		res.golden = p.g.Instrs
		res.record = fmt.Sprint(inj.Happened, inj.Activated, inj.InstrIdx, inj.Bit, inj.OrigVal, inj.FaultyVal, inj.TargetDesc, inj.Rng.Int63())
		return res
	}
	return run(false), run(true)
}

// convOpts selects a scenario attempt: the candidate kind (loads of
// site, or every value-producing instruction of site), the fault, and
// the hang budget: 20x the golden run, or exactly its length when
// tight.
type convOpts struct {
	loads     bool
	trigger   uint64
	seed      int64
	activated bool
	tight     bool
}

func (o convOpts) budget(golden uint64) uint64 {
	if o.tight {
		return golden
	}
	return golden * 20
}

// convAttempt runs one scenario attempt from the start of the program.
type convAttempt func(convOpts) (ref, fast convResult)

// convCompile compiles src to IR and lowers it to machine code.
func convCompile(t *testing.T, src string) (*interp.Prepared, *x86.Program) {
	t.Helper()
	mod, err := minic.Compile("conv", src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := codegen.Lower(mod, prep.Layout, codegen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prep, asm
}

// convIR builds src at IR level, with a golden snapshot every stride
// instructions.
func convIR(t *testing.T, src string, stride uint64) convAttempt {
	t.Helper()
	prep, _ := convCompile(t, src)
	p, ok := newIRProg(prep, interp.DefaultMaxInstrs, func(uint64) uint64 { return stride })
	if !ok {
		t.Fatal("IR build or golden run failed")
	}
	return func(o convOpts) (ref, fast convResult) {
		cands := llfi.CandidatesFunc(prep, func(in *ir.Instr) bool {
			return in.Parent.Parent.Name == "site" && (!o.loads || in.Op == ir.OpLoad)
		})
		return p.attempt(-1, o.budget(p.g.Instrs), convInject{cands, o.trigger, o.seed, o.activated})
	}
}

// convASM builds src at machine level, with a golden snapshot every
// stride instructions.
func convASM(t *testing.T, src string, stride uint64) convAttempt {
	t.Helper()
	prep, asm := convCompile(t, src)
	p, ok := newASMProg(asm, prep.Layout.Image, prep.Layout.Base, machine.DefaultMaxInstrs, func(uint64) uint64 { return stride })
	if !ok {
		t.Fatal("machine build or golden run failed")
	}
	return func(o convOpts) (ref, fast convResult) {
		cat := fault.CatAll
		if o.loads {
			cat = fault.CatLoad
		}
		return p.attempt(-1, o.budget(p.g.Instrs), convInject{asmCands(asm, cat, "site"), o.trigger, o.seed, o.activated})
	}
}

// asmCands is PINFI's candidate set of category cat, cut down to fn's
// instructions, which run from its entry to the next function's.
func asmCands(asm *x86.Program, cat fault.Category, fn string) []bool {
	lo, hi := asm.FuncAt[fn], len(asm.Instrs)
	for _, at := range asm.FuncAt {
		if at > lo && at < hi {
			hi = at
		}
	}
	cands := pinfi.Candidates(asm, cat)
	for i := range cands {
		cands[i] = cands[i] && i >= lo && i < hi
	}
	return cands
}

var convLevels = []struct {
	name  string
	build func(t *testing.T, src string, stride uint64) convAttempt
}{{"IR", convIR}, {"ASM", convASM}}

// convSame requires the converging attempt to reproduce the reference
// run exactly, having executed no more of it. An attempt that converged
// rejoined the golden run, output included, so it must be Benign; one
// that cycled must be a Hang it ended short of the budget.
func convSame(t *testing.T, what string, ref, fast convResult) {
	t.Helper()
	if ref.outcome != fast.outcome || ref.out != fast.out || ref.exit != fast.exit || ref.err != fast.err || ref.record != fast.record {
		t.Fatalf("%s: compiled run differs from the reference:\nreference %+v\ncompiled  %+v", what, ref, fast)
	}
	if fast.converged && fast.outcome != fault.OutcomeBenign {
		t.Fatalf("%s: a %v attempt converged", what, fast.outcome)
	}
	if fast.cycled && (fast.outcome != fault.OutcomeHang || fast.converged || fast.executed >= ref.executed) {
		t.Fatalf("%s: a %v attempt cycled at %d of %d (converged %v)", what, fast.outcome, fast.executed, ref.executed, fast.converged)
	}
	if fast.executed > ref.executed || (!fast.converged && !fast.cycled && fast.executed != ref.executed) {
		t.Fatalf("%s: executed: reference %d, compiled %d (converged %v, cycled %v)", what, ref.executed, fast.executed, fast.converged, fast.cycled)
	}
}

func convSrc(site, pre string) string { return fmt.Sprintf(convProgram, site, pre) }

// TestConvergenceMaskedFaultRejoins is the positive control: a flip of
// g's loaded value that leaves it non-negative is masked, ends Benign,
// and must end at a convergence point.
func TestConvergenceMaskedFaultRejoins(t *testing.T) {
	src := convSrc(`long site() { long v = g; if (v < 0) print_char(33); return 0; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			attempt := lv.build(t, src, 64)
			benign := 0
			for seed := int64(1); seed <= 16; seed++ {
				ref, fast := attempt(convOpts{loads: true, seed: seed})
				convSame(t, fmt.Sprintf("seed %d", seed), ref, fast)
				if (ref.outcome == fault.OutcomeBenign) != fast.converged {
					t.Fatalf("seed %d: outcome %v but converged=%v", seed, ref.outcome, fast.converged)
				}
				if ref.outcome == fault.OutcomeBenign {
					benign++
				}
			}
			if benign == 0 {
				t.Fatal("no Benign draw")
			}
		})
	}
}

// TestConvergencePrintedThenMasked: the corrupted value is printed, then
// its frame returns and the state rejoins the golden run. Output of the
// golden length is not enough; the attempt must end SDC.
func TestConvergencePrintedThenMasked(t *testing.T) {
	src := convSrc(`long site() { long v = g; print_char(64 + v); return 0; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			attempt := lv.build(t, src, 64)
			sdc := 0
			for seed := int64(1); seed <= 200 && sdc < 3; seed++ {
				ref, fast := attempt(convOpts{loads: true, seed: seed})
				convSame(t, fmt.Sprintf("seed %d", seed), ref, fast)
				if ref.outcome == fault.OutcomeSDC {
					sdc++
				}
			}
			if sdc == 0 {
				t.Fatal("no draw corrupted the printed byte")
			}
		})
	}
}

// TestConvergenceFreeListOrder: the fault swaps the order in which two
// blocks of one size class are freed, on a path with no branch, so the
// attempt stays in step with golden. Pages, heap cursor and live blocks
// all rejoin the golden run; the free list's order does not. With the
// order left alone, the attempt converges.
func TestConvergenceFreeListOrder(t *testing.T) {
	site := `long site() {
    long v = g; long d = (v != 1); long a = (long)pa; long b = (long)pb;
    long x = a + %s * (b - a); long y = b - %s * (b - a);
    free((long*)x); free((long*)y); return 0;
}`
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			ref, fast := lv.build(t, convSrc(fmt.Sprintf(site, "d", "d"), ""), 64)(convOpts{loads: true, seed: 1})
			convSame(t, "swapped free order", ref, fast)
			if ref.outcome != fault.OutcomeBenign || fast.converged {
				t.Fatalf("swapped free order: outcome %v, converged %v; want Benign without convergence", ref.outcome, fast.converged)
			}
			ref, fast = lv.build(t, convSrc(fmt.Sprintf(site, "(d & 0)", "(d & 0)"), ""), 64)(convOpts{loads: true, seed: 1})
			convSame(t, "same free order", ref, fast)
			if !fast.converged {
				t.Fatal("same free order: the attempt never converged")
			}
		})
	}
}

// TestConvergenceAttemptOnlyPage: the fault makes site store a zero 600
// words below its frame, on a path with no branch. The store grows the
// stack onto a page the golden run never maps; its bytes stay zero, so
// only the set of mapped pages tells the states apart. When pre, a
// frame of the same depth, has stored there first, golden maps the
// page too and the attempt converges.
func TestConvergenceAttemptOnlyPage(t *testing.T) {
	const touch = `long %s() { long v = g; long d = (v %s 1); long loc = 0; long *p = &loc; p[0 - d * 600] = 0; free(nul); return 0; }
`
	site := fmt.Sprintf(touch, "site", "!=")
	pre := fmt.Sprintf(touch, "pre", "==")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			ref, fast := lv.build(t, convSrc(site, ""), 64)(convOpts{loads: true, seed: 1})
			convSame(t, "attempt-only page", ref, fast)
			if ref.outcome != fault.OutcomeBenign || fast.converged {
				t.Fatalf("outcome %v, converged %v; want Benign without convergence", ref.outcome, fast.converged)
			}
			ref, fast = lv.build(t, convSrc(pre+site, "pre();"), 64)(convOpts{loads: true, seed: 1})
			convSame(t, "page mapped by golden", ref, fast)
			if !fast.converged {
				t.Fatal("with the page mapped by golden too, the attempt never converged")
			}
		})
	}
}

// TestConvergenceNeedsActivation: a fault whose value is never read
// (v feeds only the branch not taken) must run to the end and come out
// Not Activated, although its state rejoins golden once site returns.
// The same attempt with the record marked activated converges, which
// shows that the state does rejoin.
func TestConvergenceNeedsActivation(t *testing.T) {
	src := convSrc(`long site() { long v = g2 * 3 + 5; free(nul); if (g == 1) return 0; return v; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			attempt := lv.build(t, src, 64)
			found := 0
			for trigger := uint64(0); ; trigger++ {
				ref, fast := attempt(convOpts{trigger: trigger, seed: 1})
				if !ref.happened {
					break
				}
				convSame(t, fmt.Sprintf("trigger %d", trigger), ref, fast)
				if ref.outcome != fault.OutcomeNotActivated {
					continue
				}
				if fast.converged {
					t.Fatalf("trigger %d: a not-activated fault took the convergence short cut", trigger)
				}
				ref, fast = attempt(convOpts{trigger: trigger, seed: 1, activated: true})
				convSame(t, fmt.Sprintf("trigger %d", trigger), ref, fast)
				if fast.converged {
					found++
				}
			}
			if found == 0 {
				t.Fatal("no not-activated fault whose state rejoins golden")
			}
		})
	}
}

// TestConvergenceTwinArms: a flip of the flags of site's first compare
// sends it down the twin of the golden arm. Once each arm has reloaded
// and compared g2, registers, flags and memory equal the golden run's at
// the same count; only the position differs, and the arms print
// different bytes. With a snapshot at every step, the attempt must end
// SDC without converging.
func TestConvergenceTwinArms(t *testing.T) {
	src := convSrc(`long site() { long v = g; if (v == 1) { if (g2 == 0) print_char(65); } else { if (g2 == 0) print_char(66); } free(nul); return 0; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			attempt := lv.build(t, src, 1)
			sdc := 0
			for trigger := uint64(0); ; trigger++ {
				ref, fast := attempt(convOpts{trigger: trigger, seed: 1})
				if !ref.happened {
					break
				}
				convSame(t, fmt.Sprintf("trigger %d", trigger), ref, fast)
				if ref.outcome == fault.OutcomeSDC {
					sdc++
				}
			}
			if sdc == 0 {
				t.Fatal("no fault sent site down the other arm")
			}
		})
	}
}

// TestConvergenceExactCount pins the hang arithmetic: the fault sends
// site down a longer path that leaves no trace once it returns, so the
// attempt rejoins the golden state a few instructions late, well inside
// a snapshot's window. With a hang budget of exactly the golden length,
// the golden tail from the rejoin point no longer fits it, and the full
// run hangs. The attempt must not converge, although its state matches:
// with the usual budget, the same attempt converges.
func TestConvergenceExactCount(t *testing.T) {
	src := convSrc(`long site() { long v = g; if (v != 1) { long z = g2 * 3; if (z != 0) print_char(33); } free(nul); return 0; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			attempt := lv.build(t, src, 64)
			ref, fast := attempt(convOpts{loads: true, seed: 1, tight: true})
			convSame(t, "longer path", ref, fast)
			if ref.outcome != fault.OutcomeHang || fast.converged {
				t.Fatalf("outcome %v, converged %v; want Hang without convergence", ref.outcome, fast.converged)
			}
			ref, fast = attempt(convOpts{loads: true, seed: 1})
			convSame(t, "longer path, usual budget", ref, fast)
			if !fast.converged {
				t.Fatalf("usual budget: outcome %v, never converged", ref.outcome)
			}
		})
	}
}

// TestConvergenceSameBlockOtherPC pins the pc half of the IR position
// compare. site's loop body increments cnt, reads it back (a
// read-after-write inside the block) and stores whether to go round
// again. A flip of that compare on the last trip sends the attempt round
// once more. At the top of the extra trip, every slot and every byte of
// memory equals the golden run's at the compare one trip earlier, since
// the flipped compare holds the value the previous trip's did. Only the
// pc differs, and the extra trip makes the attempt end SDC. The test
// puts a golden snapshot at that compare, with a window that reaches the
// extra trip, so a compare that matched the block without the pc would
// take the attempt for converged.
func TestConvergenceSameBlockOtherPC(t *testing.T) {
	prep, _ := convCompile(t, convSrc(`long cnt; long more;
long site() { do { cnt = cnt + 1; more = (cnt < 5); } while (more); if (cnt != 5) print_char(33); free(nul); return 0; }`, ""))
	every, ok := newIRProg(prep, interp.DefaultMaxInstrs, func(uint64) uint64 { return 1 })
	if !ok {
		t.Fatal("IR build or golden run failed")
	}
	// The golden count at the last trip's compare: the last time site's
	// top frame is about to run the icmp of the block that stores.
	var at uint64
	for _, k := range every.snaps {
		fv := k.Frame(k.NumFrames() - 1)
		if fv.Fn.Name == "site" && fv.Blk.Instrs[fv.Idx].Op == ir.OpICmp &&
			slices.ContainsFunc(fv.Blk.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpStore }) {
			at = k.Executed
		}
	}
	// With snapshots every at instructions, the window is at/4; the top
	// of the next trip is 7 instructions past the compare.
	if at/4 < 8 {
		t.Fatalf("last compare at count %d: too early for a window that reaches the next trip", at)
	}
	p, ok := newIRProg(prep, interp.DefaultMaxInstrs, func(uint64) uint64 { return at })
	if !ok {
		t.Fatal("IR build or golden run failed")
	}
	cands := llfi.CandidatesFunc(prep, func(in *ir.Instr) bool {
		return in.Parent.Parent.Name == "site" && in.Op == ir.OpICmp
	})
	sdc := 0
	for trigger := uint64(0); ; trigger++ {
		ref, fast := p.attempt(-1, 20*p.g.Instrs, convInject{cands, trigger, 1, false})
		if !ref.happened {
			break
		}
		convSame(t, fmt.Sprintf("trigger %d", trigger), ref, fast)
		if ref.outcome == fault.OutcomeSDC {
			sdc++
		}
	}
	if sdc == 0 {
		t.Fatal("no flip sent the loop round an extra trip")
	}
}

// shiftedSites are site bodies whose flipped load of g changes how far
// site runs and nothing else: its loop takes one trip more, its loop
// takes one trip fewer, or it takes a longer branch arm. Once site
// returns, the attempt's state is the golden run's, a few instructions
// off the count of every later snapshot.
var shiftedSites = map[string]string{
	"longer loop":  `long site() { long v = g; long n = 4 + (v != 1); long s = 0; for (long i = 0; i < n; i++) s = s + (i & 1); g2 = g2 + (s > 9); free(nul); return 0; }`,
	"shorter loop": `long site() { long v = g; long n = 4 - (v != 1); long s = 0; for (long i = 0; i < n; i++) s = s + (i & 1); g2 = g2 + (s > 9); free(nul); return 0; }`,
	"longer arm":   `long site() { long v = g; long w = 1; if (v != 1) { long u = g2 + 1; w = u * u * (u + g2) - g2; } g2 = g2 + w - 1; free(nul); return 0; }`,
}

// TestConvergenceShifted: a fault that only shifts the attempt against
// the golden run, by a loop trip or a branch arm, must converge where
// its state rejoins, although that is never at a snapshot's count. The
// attempt is Benign and ends short of the full run.
func TestConvergenceShifted(t *testing.T) {
	for name, site := range shiftedSites {
		for _, lv := range convLevels {
			t.Run(lv.name+"/"+name, func(t *testing.T) {
				attempt := lv.build(t, convSrc(site, ""), 64)
				for seed := int64(1); seed <= 8; seed++ {
					ref, fast := attempt(convOpts{loads: true, seed: seed})
					convSame(t, fmt.Sprintf("seed %d", seed), ref, fast)
					if ref.outcome != fault.OutcomeBenign || !fast.converged || fast.executed >= ref.executed {
						t.Fatalf("seed %d: outcome %v, converged %v at %d of %d; want a Benign attempt converged short of the full run",
							seed, ref.outcome, fast.converged, fast.executed, ref.executed)
					}
				}
			})
		}
	}
}

// The hang-cycle exactness tests: the fault decides how a loop in site
// ends, and the hang budget is 20x the golden run. Once the attempt has
// run as long as the golden run, the compiled engine may end it as a
// Hang only when its whole state repeats.

// hangCycleSites are site bodies whose flipped load of g sends a loop
// into an exact cycle, the first by zeroing its step, the second by
// freeing each block it allocates, so that the allocator hands the same
// block out again.
var hangCycleSites = []string{
	`long site() { long v = g; long step = (v == 1); long s = 0; for (long i = 0; i < 50; i = i + step) s = s + (i & 1); free(nul); return s; }`,
	`long site() { long v = g; while (v != 1) { long *p = (long*)malloc(32L); p[1] = v; free(p); } free(nul); return 0; }`,
}

// TestHangCycleEndsEarly: a flip that sends site's loop into a cycle is
// a Hang under the reference engine at the budget, and the compiled
// engine ends it as a cycled Hang well short of the budget.
func TestHangCycleEndsEarly(t *testing.T) {
	for i, site := range hangCycleSites {
		for _, lv := range convLevels {
			t.Run(fmt.Sprintf("%s/site%d", lv.name, i), func(t *testing.T) {
				ref, fast := lv.build(t, convSrc(site, ""), 64)(convOpts{loads: true, seed: 1})
				convSame(t, "cycling loop", ref, fast)
				if ref.outcome != fault.OutcomeHang || !fast.cycled || ref.executed < 20*ref.golden {
					t.Fatalf("outcome %v, cycled %v, reference executed %d of budget %d; want a cycled Hang", ref.outcome, fast.cycled, ref.executed, 20*ref.golden)
				}
				if fast.executed > 4*ref.golden {
					t.Errorf("cycle found at %d, golden run %d: more than three golden lengths late", fast.executed, ref.golden)
				}
			})
		}
	}
}

// TestHangCycleNotForProgress: loops that hang without repeating their
// state must run to the budget, as the reference engine does. The
// first flips a loop bound far past the budget; the second prints
// every iteration, so its output grows; the third allocates every
// iteration without freeing, so its heap grows; the fourth counts in a
// global a callee bumps, so only memory tells its states apart.
func TestHangCycleNotForProgress(t *testing.T) {
	sites := map[string]string{
		"counted": `long site() { long v = g; long n = v * 40; long s = 0; for (long i = 0; i < n; i++) s = s + i; free(nul); return s & 1; }`,
		"prints":  `long site() { long v = g; while (v != 1) print_char(46); free(nul); return 0; }`,
		"mallocs": `long site() { long v = g; while (v != 1) { long *p = (long*)malloc(32L); p[1] = v; } free(nul); return 0; }`,
		"bumps":   `long bump() { g2 = g2 + 1; free(nul); return 0; } long site() { long v = g; while (v != 1) bump(); free(nul); return 0; }`,
	}
	for name, site := range sites {
		for _, lv := range convLevels {
			t.Run(lv.name+"/"+name, func(t *testing.T) {
				attempt := lv.build(t, convSrc(site, ""), 64)
				hangs := 0
				for seed := int64(1); seed <= 16; seed++ {
					ref, fast := attempt(convOpts{loads: true, seed: seed})
					convSame(t, fmt.Sprintf("seed %d", seed), ref, fast)
					if fast.cycled {
						t.Fatalf("seed %d: a %v attempt that never repeats its state cycled", seed, ref.outcome)
					}
					if ref.outcome == fault.OutcomeHang {
						hangs++
					}
				}
				if name != "mallocs" && hangs == 0 {
					t.Fatal("no draw hung")
				}
			})
		}
	}
}

// TestHangCycleLongerRun: a flip that makes site's loop run a few
// thousand iterations longer ends past the golden length but well
// inside the budget. The cycle watch saves several windows on the way
// and must not end it.
func TestHangCycleLongerRun(t *testing.T) {
	src := convSrc(`long site() { long v = g; long n = (v & 7) * 500; long s = 0; for (long i = 0; i < n; i++) s = s + i; free(nul); return s; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			attempt := lv.build(t, src, 64)
			longer := 0
			for seed := int64(1); seed <= 400 && longer < 2; seed++ {
				ref, fast := attempt(convOpts{loads: true, seed: seed})
				convSame(t, fmt.Sprintf("seed %d", seed), ref, fast)
				if ref.executed > ref.golden+4096 {
					if ref.outcome == fault.OutcomeHang || fast.cycled {
						t.Fatalf("seed %d: outcome %v, cycled %v at %d of golden %d", seed, ref.outcome, fast.cycled, ref.executed, ref.golden)
					}
					longer++
				}
			}
			if longer == 0 {
				t.Fatal("no draw ran past the golden length")
			}
		})
	}
}

// spinSrc loops forever on its own after computing w, which it reads
// only once it has counted to the first %d, or never when the second %s
// is "0". There is no golden run, so the attempts stand one in: the
// cycle watch reads only its length.
const spinSrc = `
long g = 1;
long g2 = 0;
long *nul;
int main() {
    long w = g2 * 3 + 5;
    free(nul);
    long k = 0;
    for (long i = 0; i < %d; i++) k = k + (i & 1);
    k = k + %s;
    while (g == 1) k = (k + 1) & 7;
    print_long(w + k);
    return 0;
}`

// TestHangCycleBeforeActivation: a fault in w, computed before the
// spin, is not activated when the cycle watch starts. Never read, it
// stays unactivated through the cycle; read late, it activates after
// the first window was saved. Either way the cycled attempt's record,
// activation included, must be the reference engine's. A fault whose
// trigger lies thousands of candidates into the spin has not fired when
// the spin first repeats its state; the candidate count keeps that
// state apart, so the attempt must run on until the fault fires.
func TestHangCycleBeforeActivation(t *testing.T) {
	const standIn, budget = 1000, 200_000
	for _, late := range []bool{false, true} {
		count, use := 0, "0"
		if late {
			count, use = 3000, "w"
		}
		prep, asm := convCompile(t, fmt.Sprintf(spinSrc, count, use))
		g := fault.Golden{Instrs: standIn}
		irCands := llfi.CandidatesFunc(prep, func(in *ir.Instr) bool { return in.Parent.Parent.Name == "main" })
		cp, err := irc.Compile(prep)
		if err != nil {
			t.Fatal(err)
		}
		acp, err := mc.Compile(asm, prep.Layout.Image, prep.Layout.Base)
		if err != nil {
			t.Fatal(err)
		}
		levels := []struct {
			name    string
			attempt func(trigger uint64) (ref, fast convResult)
		}{
			{"IR", func(trigger uint64) (ref, fast convResult) {
				return (&irProg{prep: prep, cp: cp, g: g}).attempt(-1, budget, convInject{cands: irCands, trigger: trigger, seed: 1})
			}},
			{"ASM", func(trigger uint64) (ref, fast convResult) {
				p := &asmProg{asm: asm, img: prep.Layout.Image, base: prep.Layout.Base, cp: acp, g: g}
				return p.attempt(-1, budget, convInject{cands: asmCands(asm, fault.CatAll, "main"), trigger: trigger, seed: 1})
			}},
		}
		for _, lv := range levels {
			t.Run(fmt.Sprintf("%s/late=%v", lv.name, late), func(t *testing.T) {
				// The first candidates are main's instructions before
				// the spin, which runs candidates forever.
				triggers := []uint64{2000, 20000}
				for trigger := uint64(0); trigger < 24; trigger++ {
					triggers = append(triggers, trigger)
				}
				cycled, live := 0, 0
				for _, trigger := range triggers {
					ref, fast := lv.attempt(trigger)
					if trigger >= 2000 && !ref.happened {
						t.Fatalf("trigger %d never fired", trigger)
					}
					convSame(t, fmt.Sprintf("trigger %d", trigger), ref, fast)
					if ref.outcome != fault.OutcomeHang {
						continue
					}
					if fast.cycled {
						cycled++
						if fast.activated == late {
							live++
						}
					}
				}
				if cycled == 0 {
					t.Fatal("no attempt cycled")
				}
				if live == 0 {
					t.Errorf("no cycled attempt with w's fault %s", map[bool]string{false: "unactivated", true: "activated late"}[late])
				}
			})
		}
	}
}
