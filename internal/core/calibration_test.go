package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hlfi/internal/codegen"
	"hlfi/internal/fault"
)

// calSrc is small but has every category the calibration touches: GEPs
// feeding loads (FoldGEP candidates), pointer-width casts used only as
// addresses, loads that survive to assembly, and plain arithmetic.
const calSrc = `
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
double scale = 1.5;

int main() {
    long sum = 0;
    double acc = 0.0;
    for (int i = 0; i < 16; i++) {
        int v = table[i];
        sum += v * (i + 1);
        acc = acc + (double)v * scale;
    }
    print_long(sum); print_str(" ");
    print_double(acc); print_str("\n");
    return (int)(sum % 31);
}`

// TestRunCalibrationStudy runs the §VII calibration experiment as an
// ordinary study over CalibrationCells: every arm of every category with
// candidates completes at the requested n, every cell releases its
// progress line, each arm keeps the seed salt of the retired three-way
// driver (cellSeed(seed+variant, …)), and the rendered aggregate line
// prints exactly CalibrationGaps.
func TestRunCalibrationStudy(t *testing.T) {
	p, err := BuildProgram("calprog", calSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*Program{p}
	cells := CalibrationCells(progs)
	if len(cells) != 12 {
		t.Fatalf("CalibrationCells = %d cells, want 4 categories x 3 arms", len(cells))
	}
	var lines []string
	st, err := RunStudy(StudyConfig{Programs: progs, Cells: cells, N: 40, Seed: 7,
		Progress: func(s string) { lines = append(lines, s) }})
	if err != nil {
		t.Fatal(err)
	}
	// Every category with candidates must have all three cells.
	for _, cat := range []fault.Category{fault.CatAll, fault.CatArith, fault.CatLoad} {
		for _, key := range cells {
			if key.Category != cat {
				continue
			}
			res := st.Cells[key]
			if res == nil {
				t.Errorf("missing cell %v", key)
				continue
			}
			if got := res.Activated(); got != 40 {
				t.Errorf("%v: activated = %d, want 40", key, got)
			}
		}
	}
	if len(lines) != len(cells) {
		t.Errorf("%d progress lines for %d cells", len(lines), len(cells))
	}

	// The arms keep the retired driver's seeds: plain LLFI is the paper
	// cell, the calibrated arm salts the study seed by 1, PINFI by 2.
	for _, key := range cells[:3] {
		want, err := (&Campaign{Prog: p, Level: key.Level, Category: key.Category, Variant: key.Variant,
			N: 40, Seed: cellSeed(7+int64(key.Variant), p.Name, key.Level, key.Category)}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Cells[key]; got == nil || *got != *want {
			t.Errorf("%v = %+v, want the salted-seed campaign's %+v", key, got, want)
		}
	}

	out := st.RenderCalibration()
	for _, want := range []string{"Calibration experiment", "calprog", "mean |crash gap to PINFI|"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderCalibration missing %q:\n%s", want, out)
		}
	}
	plain, calibrated := st.CalibrationGaps()
	if plain < 0 || calibrated < 0 {
		t.Fatalf("gaps must be non-negative: %f %f", plain, calibrated)
	}
	// The render's aggregate line must agree with CalibrationGaps.
	agg := fmt.Sprintf("mean |crash gap to PINFI|: plain %.1f points, calibrated %.1f points\n", plain, calibrated)
	if !strings.HasSuffix(out, agg) {
		t.Errorf("render aggregate line disagrees with CalibrationGaps (want %q):\n%s", agg, out)
	}
}

// TestInvalidVariant: a variant no injector runs — unknown, or the
// calibrated (LLFI-only) variant at assembly level — is refused with a
// typed *InvalidVariantError by the campaign and by the study, before
// anything runs.
func TestInvalidVariant(t *testing.T) {
	p, err := BuildProgram("calprog", calSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []CellKey{
		{Prog: p.Name, Level: fault.LevelASM, Category: fault.CatAll, Variant: VariantCalibrated},
		{Prog: p.Name, Level: fault.LevelIR, Category: fault.CatAll, Variant: 3},
		{Prog: p.Name, Level: fault.LevelIR, Category: fault.CatAll, Variant: -1},
	} {
		var ive *InvalidVariantError
		_, err := (&Campaign{Prog: p, Level: key.Level, Category: key.Category, Variant: key.Variant, N: 4, Seed: 1}).Run()
		if !errors.As(err, &ive) || ive.Variant != key.Variant {
			t.Errorf("Campaign %v: %v, want *InvalidVariantError", key, err)
		}
		_, err = RunStudy(StudyConfig{Programs: []*Program{p}, Cells: []CellKey{key}, N: 4, Seed: 1})
		if !errors.As(err, &ive) {
			t.Errorf("RunStudy %v: %v, want *InvalidVariantError", key, err)
		}
	}
}

func TestDynCount(t *testing.T) {
	p, err := BuildProgram("dyncount", calSrc)
	if err != nil {
		t.Fatal(err)
	}
	dyn := ProfileStudy([]*Program{p}, 0, 0)
	for _, level := range []fault.Level{fault.LevelIR, fault.LevelASM} {
		all := dyn.DynCandidates(p.Name, level, fault.CatAll)
		arith := dyn.DynCandidates(p.Name, level, fault.CatArith)
		if all == 0 || arith == 0 {
			t.Fatalf("%v: zero dynamic counts (all=%d arith=%d)", level, all, arith)
		}
		if arith >= all {
			t.Errorf("%v: arithmetic (%d) must be a strict subset of all (%d)", level, arith, all)
		}
	}
	// Casts exist at IR (the (double)v conversions) — Table IV's "cast
	// instructions vanish at assembly" claim is about CVT counts being
	// tiny, checked in the bench shape tests; here we only need IR > 0.
	if irCast := dyn.DynCandidates(p.Name, fault.LevelIR, fault.CatCast); irCast == 0 {
		t.Error("IR cast count should be nonzero for this source")
	}
}

// TestBuildProgramWithOptions: the ablation entry point must produce a
// working program under every folding configuration, with golden-run
// equality still enforced.
func TestBuildProgramWithOptions(t *testing.T) {
	opts := codegen.Options{FoldGEP: false, FoldLoad: false, FuseCmpBranch: false}
	p, err := BuildProgramWithOptions("noopt", calSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.AsmInstrs == 0 || p.IRInstrs == 0 {
		t.Fatal("golden instruction counts not recorded")
	}
	// Without folding, the assembly candidate pool for 'all' must be at
	// least as large as with full folding.
	folded, err := BuildProgram("opt", calSrc)
	if err != nil {
		t.Fatal(err)
	}
	dyn := ProfileStudy([]*Program{p, folded}, 0, 0)
	nNo := dyn.DynCandidates(p.Name, fault.LevelASM, fault.CatAll)
	nYes := dyn.DynCandidates(folded.Name, fault.LevelASM, fault.CatAll)
	if nNo < nYes {
		t.Errorf("unfolded candidates (%d) < folded (%d)", nNo, nYes)
	}
}
