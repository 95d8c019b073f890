package pinfi_test

import (
	"math/rand"
	"testing"

	"hlfi/internal/codegen"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/machine"
	"hlfi/internal/minic"
	"hlfi/internal/pinfi"
	"hlfi/internal/x86"
)

const testSrc = `
int arr[8];
int main() {
    double acc = 0.0;
    for (int i = 0; i < 8; i++) {
        arr[i] = i * 3;
        acc = acc + (double)arr[i];
    }
    long sum = 0;
    for (int i = 0; i < 8; i++) sum += arr[i];
    print_long(sum); print_str(" ");
    print_double(acc); print_str("\n");
    return 0;
}
`

func build(t *testing.T) (*x86.Program, []byte, uint64) {
	t.Helper()
	mod, err := minic.Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Lower(mod, prep.Layout, codegen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog, prep.Layout.Image, prep.Layout.Base
}

// TestSelectorCriteria checks the Table III rules at the assembly level.
func TestSelectorCriteria(t *testing.T) {
	prog, _, _ := build(t)
	dep := machine.DependentFlagMasks(prog)
	byCat := make(map[fault.Category][]bool)
	for _, cat := range fault.Categories {
		byCat[cat] = pinfi.Candidates(prog, cat)
	}
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if byCat[fault.CatAll][i] && !in.HasRegDest() && dep[i] == 0 {
			t.Errorf("all-candidate %s has no register destination", in.String())
		}
		if byCat[fault.CatArith][i] && !in.Op.IsArith() {
			t.Errorf("%s in arithmetic set", in.Op)
		}
		if byCat[fault.CatCast][i] && !in.Op.IsConvert() {
			t.Errorf("%s in cast/convert set", in.Op)
		}
		if byCat[fault.CatCmp][i] {
			if !in.Op.IsFlagSetter() {
				t.Errorf("%s in cmp set", in.Op)
			}
			if i+1 >= len(prog.Instrs) || !prog.Instrs[i+1].Op.IsCondJump() {
				t.Errorf("cmp candidate %d not followed by a conditional jump", i)
			}
		}
		if byCat[fault.CatLoad][i] {
			if in.Src.Kind != x86.OpMem {
				t.Errorf("load candidate without memory source: %s", in.String())
			}
		}
		// Stores and pushes must never be candidates.
		if in.Op == x86.PUSH && byCat[fault.CatAll][i] {
			t.Errorf("push selected: %s", in.String())
		}
		if in.Op == x86.MOV && in.Dst.Kind == x86.OpMem && byCat[fault.CatAll][i] {
			t.Errorf("store selected: %s", in.String())
		}
		for _, cat := range []fault.Category{fault.CatArith, fault.CatCast, fault.CatCmp, fault.CatLoad} {
			if byCat[cat][i] && !byCat[fault.CatAll][i] {
				t.Errorf("%s in %s but not all", in.Op, cat)
			}
		}
	}
}

func TestCmpCountsMatchIRLevel(t *testing.T) {
	// The paper observes nearly identical cmp counts at both levels:
	// every fused compare+branch corresponds to one IR compare feeding a
	// conditional branch. Statically, cmp candidates must be plentiful.
	prog, _, _ := build(t)
	cands := pinfi.Candidates(prog, fault.CatCmp)
	n := 0
	for _, c := range cands {
		if c {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("too few cmp candidates: %d", n)
	}
}

func TestInjectorLifecycle(t *testing.T) {
	prog, img, base := build(t)
	inj, err := pinfi.New(prog, img, base, fault.CatAll)
	if err != nil {
		t.Fatal(err)
	}
	if inj.DynTotal == 0 || len(inj.Golden.Output) == 0 {
		t.Fatal("bad golden profile")
	}
	a := inj.InjectAt(7, rand.New(rand.NewSource(1)))
	b := inj.InjectAt(7, rand.New(rand.NewSource(1)))
	if a.Outcome != b.Outcome || string(a.Output) != string(b.Output) {
		t.Fatal("InjectAt not deterministic")
	}
}

func TestOutcomeDistribution(t *testing.T) {
	prog, img, base := build(t)
	inj, err := pinfi.New(prog, img, base, fault.CatAll)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[fault.Outcome]bool{}
	for i := 0; i < 400; i++ {
		seen[inj.InjectOne(rng).Outcome] = true
	}
	for _, o := range []fault.Outcome{fault.OutcomeBenign, fault.OutcomeSDC, fault.OutcomeCrash} {
		if !seen[o] {
			t.Errorf("outcome %s never observed", o)
		}
	}
	// With activation heuristics, some draws are still not activated
	// (dead flag bits are pruned but overwritten registers remain).
	_ = seen[fault.OutcomeNotActivated]
}

func TestFlagCandidatesUseDependentBits(t *testing.T) {
	prog, img, base := build(t)
	inj, err := pinfi.New(prog, img, base, fault.CatCmp)
	if err != nil {
		t.Fatal(err)
	}
	dep := machine.DependentFlagMasks(prog)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		res := inj.InjectOne(rng)
		if !res.Injection.Happened {
			continue
		}
		if res.Injection.TargetDesc != "rflags" {
			t.Fatalf("cmp category corrupted %s", res.Injection.TargetDesc)
		}
		mask := dep[res.Injection.InstrIdx]
		if mask&(1<<uint(res.Injection.Bit)) == 0 {
			t.Fatalf("flipped flag bit %d outside dependent mask %x (Figure 2a heuristic)",
				res.Injection.Bit, mask)
		}
	}
}

// TestCmpHeuristicGuaranteesActivation: because PINFI injects only the
// flag bits the very next conditional jump reads, every cmp-category
// fault is activated — the purpose of the Figure 2(a) heuristic.
func TestCmpHeuristicGuaranteesActivation(t *testing.T) {
	prog, img, base := build(t)
	inj, err := pinfi.New(prog, img, base, fault.CatCmp)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 150; i++ {
		res := inj.InjectOne(rng)
		if res.Outcome == fault.OutcomeNotActivated {
			t.Fatalf("cmp injection %d not activated: the dependent-bit heuristic must prevent this", i)
		}
	}
}
