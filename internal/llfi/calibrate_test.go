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

func prepareSrc(t *testing.T, src string) *interp.Prepared {
	t.Helper()
	mod, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func countCands(cands []bool) int {
	n := 0
	for _, c := range cands {
		if c {
			n++
		}
	}
	return n
}

// TestCalibrationGEPAsArith: unfoldable GEPs join the arithmetic category
// (§VII-1); foldable ones stay out.
func TestCalibrationGEPAsArith(t *testing.T) {
	p := prepareSrc(t, `
struct wide { int a; int b; int c; int d; int e; int f; int g; };
struct wide ws[8];
int arr[8];
int *keep;
int main() {
    long s = 0;
    for (int i = 0; i < 8; i++) {
        s += arr[i];          /* foldable GEP: same-block load */
        s += ws[i].f;         /* stride 28: not a hardware scale */
        keep = &arr[i];       /* address escapes: unfoldable */
    }
    print_long(s);
    return 0;
}`)
	plain := llfi.Candidates(p, fault.CatArith)
	cal := llfi.CandidatesCalibrated(p, fault.CatArith, llfi.Calibration{GEPAsArith: true})
	if countCands(cal) <= countCands(plain) {
		t.Fatalf("calibrated arithmetic should gain GEPs: %d vs %d", countCands(cal), countCands(plain))
	}
	// Verify only GEPs were added, and not the foldable plain-array one.
	for _, f := range p.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if cal[in.Seq] && !plain[in.Seq] && in.Op != ir.OpGEP {
					t.Errorf("non-GEP %s entered calibrated arithmetic", in.Op)
				}
			}
		}
	}
}

// TestCalibrationAddressCasts: a sext feeding only GEP indices leaves the
// calibrated cast set; a value-producing conversion stays.
func TestCalibrationAddressCasts(t *testing.T) {
	p := prepareSrc(t, `
int arr[16];
double out;
int main() {
    int n = 0;
    for (int i = 0; i < 16; i++) {
        arr[i] = i;           /* sext i -> GEP index only */
        n += arr[i];
    }
    out = (double)n;          /* genuine value conversion */
    print_double(out);
    return 0;
}`)
	plain := llfi.Candidates(p, fault.CatCast)
	cal := llfi.CandidatesCalibrated(p, fault.CatCast, llfi.Calibration{SkipAddressCasts: true})
	if countCands(cal) >= countCands(plain) {
		t.Fatalf("calibrated cast set should shrink: %d vs %d", countCands(cal), countCands(plain))
	}
	// The sitofp must survive.
	survived := false
	for _, f := range p.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSIToFP && cal[in.Seq] {
					survived = true
				}
			}
		}
	}
	if !survived {
		t.Fatal("value conversion wrongly excluded")
	}
}

// TestCalibrationMappedLoads: single-use same-block ALU-feeding loads
// leave the calibrated load set.
func TestCalibrationMappedLoads(t *testing.T) {
	p := prepareSrc(t, `
int arr[16];
int sink[16];
int main() {
    long s = 0;
    for (int i = 0; i < 16; i++) {
        s += arr[i];          /* load folds into the add */
        sink[i] = arr[i];     /* load feeds a store: stays a real load */
    }
    print_long(s);
    return 0;
}`)
	plain := llfi.Candidates(p, fault.CatLoad)
	cal := llfi.CandidatesCalibrated(p, fault.CatLoad, llfi.Calibration{AsmMappedLoadsOnly: true})
	if countCands(cal) >= countCands(plain) {
		t.Fatalf("calibrated load set should shrink: %d vs %d", countCands(cal), countCands(plain))
	}
	if countCands(cal) == 0 {
		t.Fatal("store-feeding load should survive calibration")
	}
}

// TestNewCalibratedRuns ensures the calibrated injector works end to end.
func TestNewCalibratedRuns(t *testing.T) {
	p := prepareSrc(t, testSrc)
	plain, err := llfi.New(p, fault.CatAll)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := llfi.View(p, plain.Golden, fault.CatAll,
		llfi.CandidatesCalibrated(p, fault.CatAll, llfi.FullCalibration()))
	if err != nil {
		t.Fatal(err)
	}
	if inj.DynTotal >= plain.DynTotal {
		t.Fatalf("calibrated 'all' should drop unmapped instructions: %d vs %d",
			inj.DynTotal, plain.DynTotal)
	}
}

// TestSourceLineProfile verifies line stamping survives the optimizer and
// that outcomes are attributed plausibly.
func TestSourceLineProfile(t *testing.T) {
	src := `int data[64];
int main() {
    long sum = 0;
    for (int i = 0; i < 64; i++) {
        data[i] = i * 3;
        sum += data[i];
    }
    print_long(sum);
    print_str("\n");
    return 0;
}
`
	p := prepareSrc(t, src)
	// Every candidate instruction should carry a source line.
	stamped, total := 0, 0
	for _, f := range p.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() {
					continue
				}
				total++
				if in.Line > 0 {
					stamped++
				}
			}
		}
	}
	// Phis synthesized by mem2reg legitimately carry no line; everything
	// the frontend emitted must.
	if total == 0 || stamped*4 < total*3 {
		t.Fatalf("only %d/%d instructions carry line info", stamped, total)
	}

	inj, err := llfi.New(p, fault.CatAll)
	if err != nil {
		t.Fatal(err)
	}
	prof := inj.ProfileByLine(150, rand.New(rand.NewSource(7)))
	attributed := 0
	for line, ls := range prof.Lines {
		if line < 1 || line > 12 {
			t.Errorf("line %d outside the source range", line)
		}
		attributed += ls.Total()
	}
	if attributed+prof.Unattributed != 150 {
		t.Fatalf("attribution accounting: %d + %d != 150", attributed, prof.Unattributed)
	}
	if len(prof.TopSDC(3)) == 0 && len(prof.TopCrash(3)) == 0 {
		t.Fatal("no lines profiled at all")
	}
	if out := prof.Render(src, 3); out == "" {
		t.Fatal("empty render")
	}
}
