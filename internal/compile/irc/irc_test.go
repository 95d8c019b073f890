package irc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/compile/irc"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/llfi"
)

// TestGoldenEquivalence runs every benchmark fault-free under the
// interpreter and the compiled engine and requires bit-identical exit
// codes, output, and executed counts.
func TestGoldenEquivalence(t *testing.T) {
	progs, err := bench.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		cp, err := irc.Compile(p.Prep)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		var iOut, cOut bytes.Buffer
		ir := interp.NewRunner(p.Prep, &iOut)
		iRC, iErr := ir.Run()
		cr := irc.NewRunner(cp, &cOut)
		cRC, cErr := cr.Run()
		if fmt.Sprint(iErr) != fmt.Sprint(cErr) {
			t.Fatalf("%s: err: interp=%v compiled=%v", p.Name, iErr, cErr)
		}
		if iRC != cRC {
			t.Fatalf("%s: exit: interp=%d compiled=%d", p.Name, iRC, cRC)
		}
		if !bytes.Equal(iOut.Bytes(), cOut.Bytes()) {
			t.Fatalf("%s: output differs", p.Name)
		}
		if ir.Executed() != cr.Executed() {
			t.Fatalf("%s: executed: interp=%d compiled=%d", p.Name, ir.Executed(), cr.Executed())
		}
	}
}

// TestInjectionEquivalence replays the same injections (same candidate
// sets, trigger indices, and RNG seeds) through both engines and
// requires identical results and identical post-run RNG states.
func TestInjectionEquivalence(t *testing.T) {
	progs, err := bench.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		cp, err := irc.Compile(p.Prep)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		for _, cat := range []fault.Category{fault.CatAll, fault.CatArith, fault.CatCmp, fault.CatLoad} {
			candSet := llfi.Candidates(p.Prep, cat)
			any := false
			for _, c := range candSet {
				if c {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				seed := int64(trial + 1)
				trigger := uint64(trial * 37 % 200)

				iInj := &interp.Injection{Candidates: candSet, TriggerIndex: trigger, Rng: rand.New(rand.NewSource(seed))}
				var iOut bytes.Buffer
				ir := interp.NewRunner(p.Prep, &iOut)
				ir.Inject = iInj
				ir.MaxInstrs = p.IRInstrs*4 + 100_000
				iRC, iErr := ir.Run()

				cInj := &interp.Injection{Candidates: candSet, TriggerIndex: trigger, Rng: rand.New(rand.NewSource(seed))}
				var cOut bytes.Buffer
				cr := irc.NewRunner(cp, &cOut)
				cr.Inject = cInj
				cr.MaxInstrs = p.IRInstrs*4 + 100_000
				cRC, cErr := cr.Run()

				if fmt.Sprint(iErr) != fmt.Sprint(cErr) {
					t.Fatalf("%s/%v trial %d: err: interp=%v compiled=%v", p.Name, cat, trial, iErr, cErr)
				}
				if iRC != cRC || !bytes.Equal(iOut.Bytes(), cOut.Bytes()) {
					t.Fatalf("%s/%v trial %d: result divergence", p.Name, cat, trial)
				}
				if ir.Executed() != cr.Executed() {
					t.Fatalf("%s/%v trial %d: executed: interp=%d compiled=%d", p.Name, cat, trial, ir.Executed(), cr.Executed())
				}
				if iInj.Happened != cInj.Happened || iInj.Activated != cInj.Activated ||
					iInj.Bit != cInj.Bit || iInj.OrigVal != cInj.OrigVal ||
					iInj.FaultyVal != cInj.FaultyVal || iInj.InstrIndex != cInj.InstrIndex ||
					iInj.Target != cInj.Target {
					t.Fatalf("%s/%v trial %d: injection record divergence:\ninterp:   %+v\ncompiled: %+v",
						p.Name, cat, trial, iInj, cInj)
				}
				// Post-run RNG states must match: both engines drew the
				// same values in the same order.
				if a, b := iInj.Rng.Int63(), cInj.Rng.Int63(); a != b {
					t.Fatalf("%s/%v trial %d: RNG state diverged", p.Name, cat, trial)
				}
			}
		}
	}
}

// TestCallArityMismatchFallsBack pins the compile-time arity rule: a
// call passing more arguments than its callee has parameters (legal
// for a variadic definition) runs on the interpreter, but Compile must
// reject it, since the callee's slot layout has room only for its
// declared parameters.
func TestCallArityMismatchFallsBack(t *testing.T) {
	mod, err := ir.Parse(`
define i64 @f(i64 %x) {
entry:
  %0 = add i64 %x, 1
  ret i64 %0
}

define i32 @main() {
entry:
  %0 = call i64 @f(i64 41)
  call void @print_long(i64 %0)
  ret i32 0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := mod.Func("f")
	f.Sig = &ir.Type{Kind: ir.KindFunc, Return: f.Sig.Return, Params: f.Sig.Params, Variadic: true}
	call := mod.Func("main").Entry().Instrs[0]
	call.Args = append(call.Args, ir.ConstInt(ir.I64, 7))
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := interp.NewRunner(prep, &out).Run(); err != nil || out.String() != "42" {
		t.Fatalf("interpreter: %q, %v; want \"42\"", out.String(), err)
	}
	if _, err := irc.Compile(prep); err == nil {
		t.Fatal("Compile accepted a call with 2 arguments to a 1-parameter function")
	}
}
