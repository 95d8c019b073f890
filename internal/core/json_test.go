package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// fakeStudy builds a study by hand (no campaigns) with one benchmark,
// both levels, all five categories.
func fakeStudy() *core.Study {
	st := &core.Study{
		Programs: []*core.Program{{Name: "toy"}},
		N:        10,
		Seed:     4,
		Cells:    map[core.CellKey]*core.CellResult{},
		Dyn:      map[core.CellKey]uint64{},
	}
	for _, level := range []fault.Level{fault.LevelIR, fault.LevelASM} {
		for _, cat := range fault.Categories {
			key := core.CellKey{Prog: "toy", Level: level, Category: cat}
			st.Cells[key] = &core.CellResult{
				Prog: "toy", Level: level, Category: cat,
				Benign: 5, SDC: 3, Crash: 2, Attempts: 11,
			}
			st.Dyn[key] = 100
		}
	}
	return st
}

func decodeStudy(t *testing.T, st *core.Study, experiment string) core.StudyJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteExperimentJSON(&buf, experiment); err != nil {
		t.Fatal(err)
	}
	var out core.StudyJSON
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWriteExperimentJSONScoping: -json output is scoped to the
// requested experiment instead of always dumping the full study.
func TestWriteExperimentJSONScoping(t *testing.T) {
	st := fakeStudy()

	fig3 := decodeStudy(t, st, "fig3")
	if fig3.Experiment != "fig3" {
		t.Errorf("experiment tag = %q, want fig3", fig3.Experiment)
	}
	if len(fig3.Cells) != 2 {
		t.Fatalf("fig3 JSON has %d cells, want 2 (category 'all' only)", len(fig3.Cells))
	}
	for _, c := range fig3.Cells {
		if c.Category != "all" {
			t.Errorf("fig3 JSON leaked category %q", c.Category)
		}
	}

	for _, exp := range []string{"fig4", "table5", "all"} {
		full := decodeStudy(t, st, exp)
		if full.Experiment != exp {
			t.Errorf("experiment tag = %q, want %q", full.Experiment, exp)
		}
		if len(full.Cells) != 2*len(fault.Categories) {
			t.Errorf("%s JSON has %d cells, want %d", exp, len(full.Cells), 2*len(fault.Categories))
		}
	}

	// Experiments without a JSON form are rejected.
	var buf bytes.Buffer
	for _, exp := range []string{"table2", "table4", "calibration", "nope"} {
		if err := st.WriteExperimentJSON(&buf, exp); err == nil {
			t.Errorf("experiment %q accepted for JSON output", exp)
		}
	}
}
