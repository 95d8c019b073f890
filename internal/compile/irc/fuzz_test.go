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
	"hlfi/internal/interp"
	"hlfi/internal/machine"
	"hlfi/internal/minic"
)

// fuzzBudget bounds fuzzed executions so pathological loops finish as
// ErrHang quickly instead of eating the fuzzing time box.
const fuzzBudget = 50_000

// addFuzzSeeds seeds both fuzz targets of this file with small programs
// over the operand shapes, calls, faults and hangs the engines handle.
func addFuzzSeeds(f *testing.F) {
	f.Add("int main(){int s=0;for(int i=0;i<50;i++)s+=i;print_long(s);return 0;}", int64(1), uint64(3))
	f.Add(`int arr[8];
int main() {
    double acc = 0.0;
    for (int i = 0; i < 8; i++) { arr[i] = i * 3; acc = acc + (double)arr[i]; }
    long sum = 0;
    for (int i = 0; i < 8; i++) sum += arr[i];
    print_long(sum); print_str(" "); print_double(acc); print_str("\n");
    return 0;
}`, int64(7), uint64(19))
	f.Add("int f(int n){ if (n < 2) return n; return f(n-1)+f(n-2); } int main(){ print_long(f(12)); return 0; }", int64(3), uint64(40))
	f.Add("int main(){ int *p = 0; return *p; }", int64(5), uint64(0))
	f.Add("int main(){ int a = 7; int b = 0; return a / b; }", int64(9), uint64(1))
	f.Add("int main(){ for(;;){} return 0; }", int64(11), uint64(64))
	// Operand shapes of the slot layout and the fused machine steps:
	// parameters as direct arithmetic operands, a global address as an
	// operand, a phi with a constant incoming value, 2-D array and
	// struct-field GEPs, char loads and stores, and immediate add, sub
	// and compare.
	f.Add("long f(long a, long b){ return a*b + a - (b ^ a) + (a << 2); } int main(){ print_long(f(6,7)); print_long(f(-3,11)); return 0; }", int64(13), uint64(5))
	f.Add("long gv; int garr[4]; int main(){ gv = 41; garr[2] = 3; gv = gv + garr[2]; print_long(gv); return 0; }", int64(17), uint64(2))
	f.Add("int main(){ int x = 0; for (int i = 0; i < 10; i++) { if (i & 1) x = 5; else x = x + i; } print_long(x); return 0; }", int64(19), uint64(23))
	f.Add(`struct pt { int a; long b; double c; };
struct pt ps[3];
int grid[4][5];
int main() {
    for (int i = 0; i < 4; i++) for (int j = 0; j < 5; j++) grid[i][j] = i * j + 1;
    for (int k = 0; k < 3; k++) { ps[k].a = grid[k][k+1]; ps[k].b = grid[3][k] * 10; ps[k].c = (double)ps[k].a; }
    print_long(ps[2].b + ps[1].a); print_double(ps[2].c); return 0;
}`, int64(23), uint64(31))
	f.Add("char buf[16]; int main(){ for (int i = 0; i < 16; i++) buf[i] = 'a' + i; int s = 0; for (int i = 0; i < 16; i++) s = s + buf[i]; print_char(buf[3]); print_long(s); return 0; }", int64(29), uint64(40))
	f.Add("int main(){ long x = 100; int n = 0; while (x > 7) { x = x - 3; n = n + 2; } if (n == 62) x = x + 12; print_long(x); print_long(n); return 0; }", int64(31), uint64(17))
}

// FuzzCompiledVsInterp feeds arbitrary programs through both compiled
// engines and their interpreters — golden and with an injection armed —
// and requires bit-identical exit codes, errors, output, executed
// counts, injection records, and post-run RNG states. Programs the
// compilers reject are skipped: rejection IS the fallback path, and the
// interpreter result is then trivially identical.
func FuzzCompiledVsInterp(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string, seed int64, trigger uint64) {
		mod, err := minic.Compile("fuzz", src)
		if err != nil {
			t.Skip()
		}
		prep, err := interp.Prepare(mod)
		if err != nil {
			t.Skip()
		}
		trigger %= 4096

		// IR level: interpreter vs compile-to-closure engine, from the
		// start and resumed from the interpreter's golden-run snapshots
		// (which land inside callees, so restore of frames parked on a
		// call is covered too).
		if cp, err := irc.Compile(prep); err == nil {
			candSet := make([]bool, prep.SeqTotal)
			for i := range candSet {
				candSet[i] = true
			}
			var snaps []*interp.Snapshot
			g := interp.NewRunner(prep, io.Discard)
			g.MaxInstrs = fuzzBudget
			g.SnapshotEvery = 20 + trigger%200
			g.SnapshotSink = func(s *interp.Snapshot) { snaps = append(snaps, s) }
			g.Run()
			type start struct {
				inject bool
				snap   *interp.Snapshot
			}
			starts := []start{{false, nil}, {true, nil}}
			for k := 0; k < 4 && len(snaps) > 0; k++ {
				starts = append(starts, start{true, snaps[k*len(snaps)/4]})
			}
			for _, st := range starts {
				var iOut, cOut bytes.Buffer
				var ir *interp.Runner
				var cr *irc.Runner
				if st.snap != nil {
					ir = interp.NewRunnerFromSnapshot(prep, st.snap, &iOut)
					cr = irc.NewRunnerFromSnapshot(cp, st.snap, &cOut)
				} else {
					ir = interp.NewRunner(prep, &iOut)
					cr = irc.NewRunner(cp, &cOut)
				}
				ir.MaxInstrs, cr.MaxInstrs = fuzzBudget, fuzzBudget
				var iInj, cInj *interp.Injection
				if st.inject {
					iInj = &interp.Injection{Candidates: candSet, TriggerIndex: trigger, Rng: rand.New(rand.NewSource(seed))}
					cInj = &interp.Injection{Candidates: candSet, TriggerIndex: trigger, Rng: rand.New(rand.NewSource(seed))}
					ir.Inject, cr.Inject = iInj, cInj
				}
				var iRC, cRC int64
				var iErr, cErr error
				if st.snap != nil {
					iRC, iErr = ir.Resume()
					cRC, cErr = cr.Resume()
				} else {
					iRC, iErr = ir.Run()
					cRC, cErr = cr.Run()
				}
				resumed := st.snap != nil
				if iRC != cRC || fmt.Sprint(iErr) != fmt.Sprint(cErr) ||
					!bytes.Equal(iOut.Bytes(), cOut.Bytes()) || ir.Executed() != cr.Executed() {
					t.Fatalf("IR divergence (inject=%v resumed=%v): interp=(%d,%v,%q,%d) compiled=(%d,%v,%q,%d)",
						st.inject, resumed, iRC, iErr, iOut.Bytes(), ir.Executed(), cRC, cErr, cOut.Bytes(), cr.Executed())
				}
				if st.inject {
					if iInj.Happened != cInj.Happened || iInj.Activated != cInj.Activated ||
						iInj.Bit != cInj.Bit || iInj.OrigVal != cInj.OrigVal ||
						iInj.FaultyVal != cInj.FaultyVal || iInj.InstrIndex != cInj.InstrIndex {
						t.Fatalf("IR injection record divergence (resumed=%v):\ninterp   %+v\ncompiled %+v", resumed, iInj, cInj)
					}
					if a, b := iInj.Rng.Int63(), cInj.Rng.Int63(); a != b {
						t.Fatalf("IR RNG state diverged (resumed=%v)", resumed)
					}
				}
			}
		}

		// Machine level: simulator vs pre-decoded engine.
		asm, err := codegen.Lower(mod, prep.Layout, codegen.DefaultOptions())
		if err != nil {
			t.Skip()
		}
		acp, err := mc.Compile(asm, prep.Layout.Image, prep.Layout.Base)
		if err != nil {
			return
		}
		candSet := make([]bool, len(asm.Instrs))
		for i := range candSet {
			candSet[i] = true
		}
		for _, inject := range []bool{false, true} {
			var sOut, cOut bytes.Buffer
			sm := machine.New(asm, prep.Layout.Image, prep.Layout.Base, &sOut)
			sm.MaxInstrs = fuzzBudget
			ce := mc.New(acp, &cOut)
			ce.MaxInstrs = fuzzBudget
			var sInj, cInj *machine.Injection
			if inject {
				sInj = &machine.Injection{Candidates: candSet, TriggerIndex: trigger, Rng: rand.New(rand.NewSource(seed))}
				cInj = &machine.Injection{Candidates: candSet, TriggerIndex: trigger, Rng: rand.New(rand.NewSource(seed))}
				sm.Inject, ce.Inject = sInj, cInj
			}
			sRC, sErr := sm.Run()
			cRC, cErr := ce.Run()
			if sRC != cRC || fmt.Sprint(sErr) != fmt.Sprint(cErr) ||
				!bytes.Equal(sOut.Bytes(), cOut.Bytes()) || sm.Executed() != ce.Executed() {
				t.Fatalf("ASM divergence (inject=%v): machine=(%d,%v,%q,%d) compiled=(%d,%v,%q,%d)",
					inject, sRC, sErr, sOut.Bytes(), sm.Executed(), cRC, cErr, cOut.Bytes(), ce.Executed())
			}
			if inject {
				if sInj.Happened != cInj.Happened || sInj.Activated != cInj.Activated ||
					sInj.Bit != cInj.Bit || sInj.OrigVal != cInj.OrigVal ||
					sInj.FaultyVal != cInj.FaultyVal || sInj.InstrIdx != cInj.InstrIdx ||
					sInj.TargetDesc != cInj.TargetDesc {
					t.Fatalf("ASM injection record divergence:\nmachine  %+v\ncompiled %+v", sInj, cInj)
				}
				if a, b := sInj.Rng.Int63(), cInj.Rng.Int63(); a != b {
					t.Fatal("ASM RNG state diverged")
				}
			}
		}
	})
}

// FuzzConvergence is the differential gate of masking convergence. For
// arbitrary programs it starts each compiled engine from scratch and
// from every golden snapshot, with an injection armed after the start
// point and the later snapshots armed for convergence, and runs the
// reference engine from the same point to the end. Outcome, output,
// exit code, error, injection record and post-run RNG state must be
// equal; the compiled engine may stop early only by converging or by
// finding a hang cycle, a converged attempt is Benign and a cycled one
// is a Hang.
func FuzzConvergence(f *testing.F) {
	addFuzzSeeds(f)
	f.Add(convSrc(`long site() { long v = g; if (v < 0) print_char(33); return 0; }`, ""), int64(2), uint64(0))
	// Hang-budget seeds. A flip that zeroes a loop's step (trigger 1 at
	// IR, 6 at ASM) or makes a loop allocate and free a block forever
	// (trigger 4 at ASM) cycles; one that raises a loop bound past the
	// budget (trigger 0 at IR, 6 at ASM) hangs without repeating a
	// state.
	const zeroStep = "long g = 1; int main(){ long v = g; long step = (v == 1); long s = 0; for (long i = 0; i < 50; i = i + step) s = s + (i & 1); print_long(s); return 0; }"
	const allocFree = "long g = 1; int main(){ long v = g; while (v != 1) { long *p = (long*)malloc(32L); p[1] = v; free(p); } print_long(v); return 0; }"
	const longBound = "long g = 1; int main(){ long v = g; long n = v * 40; long s = 0; for (long i = 0; i < n; i++) s = s + i; print_long(s); return 0; }"
	f.Add(zeroStep, int64(1), uint64(1))
	f.Add(zeroStep, int64(1), uint64(6))
	f.Add(allocFree, int64(1), uint64(4))
	f.Add(longBound, int64(1), uint64(0))
	f.Add(longBound, int64(1), uint64(6))
	// Shifted-rejoin seeds. A flip of g's load (trigger 0 at IR, 12 or 9
	// at ASM) gives f's loop one trip more or fewer, or sends f down a
	// longer branch arm; once f returns, the state is golden's a few
	// instructions off every snapshot's count. Under a hang budget of
	// exactly the golden length (trigger bit 6), the late rejoin no
	// longer fits: those attempts hang.
	const shiftTail = " long mix(long a, long b) { long x = a * 31 + b; long y = x ^ (x >> 3); return y - (x | 7); }" +
		" int main() { f(); long t = 0; for (long i = 0; i < 100; i++) t = mix(t, i); print_long(t); return 0; }"
	const shiftHead = "long g = 1; long g2 = 0; long *nul; "
	const longerLoop = shiftHead + "long f() { long v = g; long n = 4 + (v != 1); long s = 0; for (long i = 0; i < n; i++) s = s + (i & 1); g2 = g2 + (s > 9); free(nul); return 0; }" + shiftTail
	const shorterLoop = shiftHead + "long f() { long v = g; long n = 4 - (v != 1); long s = 0; for (long i = 0; i < n; i++) s = s + (i & 1); g2 = g2 + (s > 9); free(nul); return 0; }" + shiftTail
	const longerArm = shiftHead + "long f() { long v = g; long w = 1; if (v != 1) { long u = g2 + 1; w = u * u * (u + g2) - g2; } g2 = g2 + w - 1; free(nul); return 0; }" + shiftTail
	f.Add(longerLoop, int64(1), uint64(0))
	f.Add(longerLoop, int64(1), uint64(12))
	f.Add(shorterLoop, int64(1), uint64(0))
	f.Add(shorterLoop, int64(1), uint64(12))
	f.Add(longerArm, int64(1), uint64(0))
	f.Add(longerArm, int64(1), uint64(9))
	f.Add(longerLoop, int64(1), uint64(64+0))
	f.Add(longerLoop, int64(1), uint64(64+12))

	f.Fuzz(func(t *testing.T, src string, seed int64, trigger uint64) {
		mod, err := minic.Compile("fuzz", src)
		if err != nil {
			t.Skip()
		}
		prep, err := interp.Prepare(mod)
		if err != nil {
			t.Skip()
		}
		fi := convInject{trigger: trigger % 64, seed: seed}
		// Bit 6 of trigger tightens the hang budget to exactly the
		// golden length, which every late rejoin crosses.
		budget := func(golden uint64) uint64 {
			if trigger&64 != 0 {
				return golden
			}
			return golden*2 + 1000
		}
		// About a dozen snapshots: each is the start of two runs to the
		// end.
		stride := func(golden uint64) uint64 { return golden/12 + 1 }
		if p, ok := newIRProg(prep, fuzzBudget, stride); ok {
			fi.cands = make([]bool, prep.SeqTotal)
			for i := range fi.cands {
				fi.cands[i] = true
			}
			for start := -1; start < len(p.snaps); start++ {
				ref, fast := p.attempt(start, budget(p.g.Instrs), fi)
				convSame(t, fmt.Sprintf("IR from snapshot %d", start), ref, fast)
			}
		}

		asm, err := codegen.Lower(mod, prep.Layout, codegen.DefaultOptions())
		if err != nil {
			t.Skip()
		}
		p, ok := newASMProg(asm, prep.Layout.Image, prep.Layout.Base, fuzzBudget, stride)
		if !ok {
			return
		}
		fi.cands = make([]bool, len(asm.Instrs))
		for i := range fi.cands {
			fi.cands[i] = true
		}
		for start := -1; start < len(p.snaps); start++ {
			ref, fast := p.attempt(start, budget(p.g.Instrs), fi)
			convSame(t, fmt.Sprintf("ASM from snapshot %d", start), ref, fast)
		}
	})
}
