package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hlfi/internal/fault"
)

// syntheticStudy builds a study with hand-filled cells so the renderers
// can be tested without running campaigns.
func syntheticStudy() *Study {
	progs := []*Program{{Name: "alpha"}, {Name: "beta"}}
	st := &Study{
		Programs: progs,
		N:        100,
		Cells:    make(map[CellKey]*CellResult),
		Dyn:      make(map[CellKey]uint64),
	}
	fill := func(prog string, level fault.Level, cat fault.Category, crash, sdc, benign int) {
		st.Cells[CellKey{Prog: prog, Level: level, Category: cat}] = &CellResult{
			Prog: prog, Level: level, Category: cat,
			Crash: crash, SDC: sdc, Benign: benign,
			Attempts: crash + sdc + benign,
		}
		st.Dyn[CellKey{Prog: prog, Level: level, Category: cat}] = uint64(1000 * (int(cat)*7 + int(level)))
	}
	for _, p := range progs {
		for _, lv := range []fault.Level{fault.LevelIR, fault.LevelASM} {
			for _, cat := range fault.Categories {
				fill(p.Name, lv, cat, 30, 10, 60)
			}
		}
	}
	// Introduce one big crash divergence for the summary.
	st.Cells[CellKey{Prog: "alpha", Level: fault.LevelIR, Category: fault.CatArith}].Crash = 70
	st.Cells[CellKey{Prog: "alpha", Level: fault.LevelIR, Category: fault.CatArith}].Benign = 20
	return st
}

func TestRenderers(t *testing.T) {
	st := syntheticStudy()
	fig3 := st.RenderFigure3()
	for _, want := range []string{"alpha", "beta", "average", "30.0%", "10.0%"} {
		if !strings.Contains(fig3, want) {
			t.Errorf("Figure 3 missing %q:\n%s", want, fig3)
		}
	}
	t4 := st.RenderTableIV()
	for _, want := range []string{"LLFI", "PINFI", "arithmetic", "cast", "cmp", "load"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table IV missing %q:\n%s", want, t4)
		}
	}
	fig4 := st.RenderFigure4()
	for _, want := range []string{"(a) arithmetic", "(e) all", "±", "CIs overlap"} {
		if !strings.Contains(fig4, want) {
			t.Errorf("Figure 4 missing %q", want)
		}
	}
	t5 := st.RenderTableV()
	if !strings.Contains(t5, "crash percentage") || !strings.Contains(t5, "70%") {
		t.Errorf("Table V missing content:\n%s", t5)
	}
	sum := st.RenderSummary()
	if !strings.Contains(sum, "crash difference") || !strings.Contains(sum, "40.0 points") {
		t.Errorf("summary should report the 40-point crash divergence:\n%s", sum)
	}
}

func TestCellResultAccounting(t *testing.T) {
	c := &CellResult{Crash: 10, SDC: 5, Benign: 80, Hang: 5, NotActivated: 17}
	if c.Activated() != 100 {
		t.Fatalf("activated = %d", c.Activated())
	}
	if c.CrashRate().Rate() != 0.10 || c.SDCRate().Rate() != 0.05 ||
		c.BenignRate().Rate() != 0.80 || c.HangRate().Rate() != 0.05 {
		t.Fatal("rates must be fractions of activated faults only")
	}
}

func TestCellSeedStability(t *testing.T) {
	a := cellSeed(1, "bzip2m", fault.LevelIR, fault.CatAll)
	b := cellSeed(1, "bzip2m", fault.LevelIR, fault.CatAll)
	if a != b {
		t.Fatal("cell seeds must be stable")
	}
	if a == cellSeed(1, "bzip2m", fault.LevelASM, fault.CatAll) {
		t.Fatal("levels must get different seeds")
	}
	if a == cellSeed(2, "bzip2m", fault.LevelIR, fault.CatAll) {
		t.Fatal("base seed must matter")
	}
}

func TestBuildProgramRejectsBadSource(t *testing.T) {
	if _, err := BuildProgram("bad", "int main( {"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := BuildProgram("nomain", "int f() { return 1; }"); err == nil {
		t.Fatal("missing main accepted")
	}
	// A program that crashes on its golden run is not a valid experiment.
	if _, err := BuildProgram("crasher", `int main() { int *p = 0; return *p; }`); err == nil {
		t.Fatal("crashing golden run accepted")
	}
}

func TestWriteJSON(t *testing.T) {
	st := syntheticStudy()
	var buf bytes.Buffer
	if err := st.WriteExperimentJSON(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	var decoded StudyJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.N != 100 || len(decoded.Cells) != 20 {
		t.Fatalf("decoded: n=%d cells=%d", decoded.N, len(decoded.Cells))
	}
	c := decoded.Cells[0]
	if c.Benchmark != "alpha" || c.Activated != 100 {
		t.Fatalf("first cell: %+v", c)
	}
	if c.CrashRate < 0 || c.CrashRate > 1 || c.SDCCI95 <= 0 {
		t.Fatalf("rates: %+v", c)
	}
}
