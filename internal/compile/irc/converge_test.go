package irc_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
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
// compiled engine's convergence verdict.
type convResult struct {
	outcome   fault.Outcome
	out       string
	exit      int64
	err       string
	record    string // injection record and the post-run RNG draw
	happened  bool
	executed  uint64
	converged bool
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
	c := interp.NewRunner(prep, io.Discard)
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
			res.executed, res.converged = r.Executed(), r.Converged()
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
		res.out, res.exit, res.err, res.happened = out.String(), rc, fmt.Sprint(err), inj.Happened
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
	c := machine.New(asm, img, base, io.Discard)
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
			res.executed, res.converged = e.Executed(), e.Converged()
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
		res.out, res.exit, res.err, res.happened = out.String(), rc, fmt.Sprint(err), inj.Happened
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

// convIR builds src at IR level, with a golden snapshot every stride
// instructions.
func convIR(t *testing.T, src string, stride uint64) convAttempt {
	t.Helper()
	mod, err := minic.Compile("conv", src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
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
	p, ok := newASMProg(asm, prep.Layout.Image, prep.Layout.Base, machine.DefaultMaxInstrs, func(uint64) uint64 { return stride })
	if !ok {
		t.Fatal("machine build or golden run failed")
	}
	// site's instructions run from its entry to the next function's.
	lo, hi := asm.FuncAt["site"], len(asm.Instrs)
	for _, at := range asm.FuncAt {
		if at > lo && at < hi {
			hi = at
		}
	}
	return func(o convOpts) (ref, fast convResult) {
		cat := fault.CatAll
		if o.loads {
			cat = fault.CatLoad
		}
		cands := pinfi.Candidates(asm, cat)
		for i := range cands {
			cands[i] = cands[i] && i >= lo && i < hi
		}
		return p.attempt(-1, o.budget(p.g.Instrs), convInject{cands, o.trigger, o.seed, o.activated})
	}
}

var convLevels = []struct {
	name  string
	build func(t *testing.T, src string, stride uint64) convAttempt
}{{"IR", convIR}, {"ASM", convASM}}

// convSame requires the converging attempt to reproduce the reference
// run exactly, having executed no more of it. An attempt that converged
// rejoined the golden run, output included, so it must be Benign.
func convSame(t *testing.T, what string, ref, fast convResult) {
	t.Helper()
	if ref.outcome != fast.outcome || ref.out != fast.out || ref.exit != fast.exit || ref.err != fast.err || ref.record != fast.record {
		t.Fatalf("%s: compiled run differs from the reference:\nreference %+v\ncompiled  %+v", what, ref, fast)
	}
	if fast.converged && fast.outcome != fault.OutcomeBenign {
		t.Fatalf("%s: a %v attempt converged", what, fast.outcome)
	}
	if fast.executed > ref.executed || (!fast.converged && fast.executed != ref.executed) {
		t.Fatalf("%s: executed: reference %d, compiled %d (converged %v)", what, ref.executed, fast.executed, fast.converged)
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

// TestConvergenceExactCount: the fault sends site down a longer path
// that leaves no trace once it returns, so the attempt goes through the
// golden run's remaining states a few instructions late. With a
// snapshot at every boundary and a hang budget of exactly the golden
// length, the full run hangs. The attempt may compare only at a
// boundary it reaches exactly; comparing after overshooting one (by a
// phi bundle, at IR level) would find the golden state and end Benign.
func TestConvergenceExactCount(t *testing.T) {
	src := convSrc(`long site() { long v = g; if (v != 1) { long z = g2 * 3; if (z != 0) print_char(33); } free(nul); return 0; }`, "")
	for _, lv := range convLevels {
		t.Run(lv.name, func(t *testing.T) {
			ref, fast := lv.build(t, src, 1)(convOpts{loads: true, seed: 1, tight: true})
			convSame(t, "longer path", ref, fast)
			if ref.outcome != fault.OutcomeHang || fast.converged {
				t.Fatalf("outcome %v, converged %v; want Hang without convergence", ref.outcome, fast.converged)
			}
		})
	}
}
