package llfi_test

import (
	"math/rand"
	"testing"

	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/llfi"
	"hlfi/internal/minic"
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

func prepare(t *testing.T) *interp.Prepared {
	t.Helper()
	mod, err := minic.Compile("t", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSelectorCriteria checks the Table III selection rules at the IR
// level: category sets contain exactly the right opcodes, all candidates
// produce values, and all have uses (the def-use activation filter).
func TestSelectorCriteria(t *testing.T) {
	p := prepare(t)
	byCat := make(map[fault.Category][]bool)
	for _, cat := range fault.Categories {
		byCat[cat] = llfi.Candidates(p, cat)
	}
	for _, f := range p.Mod.Funcs {
		uses := ir.ComputeUses(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if byCat[fault.CatAll][in.Seq] {
					if !in.HasResult() {
						t.Errorf("candidate %s has no result", in.Op)
					}
					if uses.NumUses(in) == 0 {
						t.Errorf("candidate %s has no uses (would never activate)", in.Op)
					}
				}
				if byCat[fault.CatArith][in.Seq] && !in.Op.IsArith() {
					t.Errorf("%s in arithmetic set", in.Op)
				}
				if byCat[fault.CatArith][in.Seq] && in.Op == ir.OpGEP {
					t.Error("GEP must not be in the arithmetic category (paper §V)")
				}
				if byCat[fault.CatCast][in.Seq] && !in.Op.IsConvCast() {
					t.Errorf("%s in cast set", in.Op)
				}
				if byCat[fault.CatCmp][in.Seq] && !in.Op.IsCmp() {
					t.Errorf("%s in cmp set", in.Op)
				}
				if byCat[fault.CatLoad][in.Seq] && in.Op != ir.OpLoad {
					t.Errorf("%s in load set", in.Op)
				}
				if in.Op == ir.OpStore && byCat[fault.CatAll][in.Seq] {
					t.Error("store selected (no destination register, paper §V)")
				}
				// Subcategories are subsets of 'all'.
				for _, cat := range []fault.Category{fault.CatArith, fault.CatCast, fault.CatCmp, fault.CatLoad} {
					if byCat[cat][in.Seq] && !byCat[fault.CatAll][in.Seq] {
						t.Errorf("%s in %s but not in all", in.Op, cat)
					}
				}
			}
		}
	}
}

func TestPointerCastsExcluded(t *testing.T) {
	mod, err := minic.Compile("t", `
int main() {
    int x = 5;
    int *p = &x;
    char *c = (char*)p;     /* bitcast: excluded */
    long addr = (long)p;    /* ptrtoint: excluded */
    int *q = (int*)addr;    /* inttoptr: excluded */
    return *q + (int)(*c);
}`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	cands := llfi.Candidates(p, fault.CatCast)
	for _, f := range p.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if cands[in.Seq] {
					switch in.Op {
					case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
						t.Errorf("pointer cast %s selected in cast category (Table I row 5)", in.Op)
					}
				}
			}
		}
	}
}

func TestGoldenProfileAndCounts(t *testing.T) {
	p := prepare(t)
	inj, err := llfi.New(p, fault.CatAll)
	if err != nil {
		t.Fatal(err)
	}
	if inj.DynTotal == 0 || inj.Golden.Instrs == 0 {
		t.Fatal("empty profile")
	}
	if len(inj.Golden.Output) == 0 {
		t.Fatal("no golden output")
	}
	// Category counts partition sensibly.
	sub := uint64(0)
	for _, cat := range []fault.Category{fault.CatArith, fault.CatCast, fault.CatCmp, fault.CatLoad} {
		n := inj.Golden.DynCount(llfi.Candidates(p, cat))
		sub += n
	}
	if sub > inj.DynTotal {
		t.Fatalf("subcategories (%d) exceed 'all' (%d)", sub, inj.DynTotal)
	}
}

func TestInjectAtDeterminism(t *testing.T) {
	p := prepare(t)
	inj, err := llfi.New(p, fault.CatArith)
	if err != nil {
		t.Fatal(err)
	}
	a := inj.InjectAt(3, rand.New(rand.NewSource(5)))
	b := inj.InjectAt(3, rand.New(rand.NewSource(5)))
	if a.Outcome != b.Outcome || string(a.Output) != string(b.Output) ||
		a.Injection.Bit != b.Injection.Bit {
		t.Fatalf("InjectAt not deterministic: %v vs %v", a.Outcome, b.Outcome)
	}
}

func TestEveryOutcomeReachable(t *testing.T) {
	p := prepare(t)
	inj, err := llfi.New(p, fault.CatAll)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	seen := map[fault.Outcome]bool{}
	for i := 0; i < 400; i++ {
		seen[inj.InjectOne(rng).Outcome] = true
	}
	for _, o := range []fault.Outcome{fault.OutcomeBenign, fault.OutcomeSDC, fault.OutcomeCrash} {
		if !seen[o] {
			t.Errorf("outcome %s never observed in 400 injections", o)
		}
	}
}

func TestNoCandidatesError(t *testing.T) {
	mod, err := minic.Compile("t", `
int main() { print_str("x\n"); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := llfi.New(p, fault.CatCast); err == nil {
		t.Fatal("expected ErrNoCandidates for castless program")
	}
}

// TestCustomSelector exercises the Figure 1 "custom selector" API: inject
// only into instructions on a chosen source line.
func TestCustomSelector(t *testing.T) {
	p := prepare(t)
	// Select one arithmetic op by shape: 64-bit adds only.
	cands := llfi.CandidatesFunc(p, func(in *ir.Instr) bool {
		return in.Op == ir.OpAdd && in.Ty == ir.I64
	})
	g, err := llfi.RunGolden(p)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := llfi.View(p, g, fault.CatAll, cands)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		res := inj.InjectOne(rng)
		if res.Injection.Target == nil {
			t.Fatal("no target recorded")
		}
		if res.Injection.Target.Op != ir.OpAdd || res.Injection.Target.Ty != ir.I64 {
			t.Fatalf("custom selector violated: hit %s %s",
				res.Injection.Target.Op, res.Injection.Target.Ty)
		}
	}
	// An unsatisfiable selector errors cleanly.
	empty := llfi.CandidatesFunc(p, func(in *ir.Instr) bool { return false })
	if _, err := llfi.View(p, g, fault.CatAll, empty); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}
