package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hlfi/internal/fault"
	"hlfi/internal/obs"
)

// compiledOracleCats mirrors the shard oracle's choice: CatCast has no
// candidates in the integer-only tinySrc, so the oracle covers soft
// skips alongside completed cells.
var compiledOracleCats = []fault.Category{fault.CatAll, fault.CatArith, fault.CatCast}

// checkpointBody returns a checkpoint file's record lines without the
// header. The header differs between compiled-on and compiled-off runs
// (it records the engine config as provenance); every line after it
// must not. Lines are sorted because the durability path writes in
// completion order, which the parallel scheduler is free to permute.
func checkpointBody(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 1 || !strings.Contains(lines[0], `"type":"study"`) {
		t.Fatalf("checkpoint %s: missing header line", path)
	}
	body := lines[1:]
	sortStrings(body)
	return body
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCompiledDifferentialOracle is the study-level correctness gate for
// the compiled execution engines: the same study — both levels, cells
// with and without candidates — must produce identical per-cell outcome
// vectors, rendered report bytes, and checkpoint record bytes whether
// the compiled engines are on or off, sequentially and under the
// parallel scheduler. The oracle also proves it is not vacuous: the
// compiled runs must actually execute attempts on the compiled engines.
func TestCompiledDifferentialOracle(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, compiled *CompiledConfig, om *obs.Metrics, parallel int) (*Study, []string) {
		path := filepath.Join(dir, name+".jsonl")
		w, err := NewCheckpointWriterShape(path, CheckpointShape{
			N: 6, Seed: 9, Replay: "off", Compiled: compiled.Signature()})
		if err != nil {
			t.Fatal(err)
		}
		st, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
			Cells: CanonicalCells([]*Program{p}, compiledOracleCats), Checkpoint: w,
			Compiled: compiled, Obs: om, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return st, checkpointBody(t, path)
	}

	baseline, baseBody := run("interp", nil, nil, 1)
	golden := renderAll(baseline)

	for _, parallel := range []int{1, 3} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			om := obs.New()
			st, body := run(fmt.Sprintf("compiled-p%d", parallel), &CompiledConfig{}, om, parallel)
			if om.CompiledAttempts.Value() == 0 {
				t.Fatal("compiled run executed no attempts on the compiled engines (vacuous oracle)")
			}
			if om.CompiledFallbacks.Value() != 0 {
				t.Errorf("compiled run fell back to the interpreter %d times", om.CompiledFallbacks.Value())
			}
			if report := renderAll(st); report != golden {
				t.Errorf("compiled report differs from interpreter run:\n--- interp ---\n%s\n--- compiled ---\n%s",
					golden, report)
			}
			if len(st.Cells) != len(baseline.Cells) {
				t.Fatalf("compiled study has %d cells, interpreter %d", len(st.Cells), len(baseline.Cells))
			}
			for key, want := range baseline.Cells {
				if got := st.Cells[key]; got == nil || *got != *want {
					t.Errorf("cell %v diverged:\ninterp   %+v\ncompiled %+v", key, want, got)
				}
			}
			if len(body) != len(baseBody) {
				t.Fatalf("checkpoint has %d records, interpreter run %d", len(body), len(baseBody))
			}
			for i := range body {
				if body[i] != baseBody[i] {
					t.Errorf("checkpoint record diverged:\ninterp   %s\ncompiled %s", baseBody[i], body[i])
				}
			}
		})
	}
}
