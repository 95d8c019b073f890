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

// TestCompiledShardMergeOracle runs the shard workers with the compiled
// engines on and requires the merged report to match the interpreter-run
// single-process study byte for byte: the engines must be invisible
// through the whole shard-and-merge pipeline, headers included.
func TestCompiledShardMergeOracle(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
		Cells: CanonicalCells([]*Program{p}, compiledOracleCats)})
	if err != nil {
		t.Fatal(err)
	}
	golden := renderAll(single)

	dir := t.TempDir()
	compiled := &CompiledConfig{}
	var paths []string
	for i := 0; i < 3; i++ {
		spec := ShardSpec{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d-of-3.jsonl", i))
		w, err := NewCheckpointWriterShape(path, CheckpointShape{
			N: 6, Seed: 9, Replay: "off", Compiled: compiled.Signature(), Shard: spec.String()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
			Cells: CanonicalCells([]*Program{p}, compiledOracleCats), Checkpoint: w, Shard: &spec,
			Compiled: compiled}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	merged, err := MergeShardCheckpoints(paths)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shape.Compiled != "on" {
		t.Fatalf("merged shape pins compiled=%q, want \"on\"", merged.Shape.Compiled)
	}
	if err := merged.VerifyComplete(CanonicalCells([]*Program{p}, compiledOracleCats)); err != nil {
		t.Fatal(err)
	}
	st, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
		Cells: CanonicalCells([]*Program{p}, compiledOracleCats), Resume: merged.State})
	if err != nil {
		t.Fatal(err)
	}
	if report := renderAll(st); report != golden {
		t.Errorf("compiled shard-merge report differs from interpreter single-process run:\n--- interp ---\n%s\n--- merged ---\n%s",
			golden, report)
	}
}

// TestCompiledCheckpointFlip: the compiled and replay signatures are
// header provenance, not identity. A checkpoint written with both
// engines on resumes with both off and vice versa, shards written under
// different policies merge, and every such run renders the
// uninterrupted report byte for byte. Headers from before the compiled
// engines existed carry no field and still load.
func TestCompiledCheckpointFlip(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	type policy struct {
		replay   *ReplayConfig
		compiled *CompiledConfig
	}
	policies := []policy{{&ReplayConfig{}, &CompiledConfig{}}, {nil, nil}}
	shapeOf := func(pol policy, shard string) CheckpointShape {
		return CheckpointShape{N: 6, Seed: 9, Replay: pol.replay.Signature(),
			Compiled: pol.compiled.Signature(), Shard: shard}
	}
	study := func(pol policy, mutate func(*StudyConfig)) *Study {
		t.Helper()
		cfg := StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
			Cells: CanonicalCells([]*Program{p}, compiledOracleCats), Replay: pol.replay, Compiled: pol.compiled}
		mutate(&cfg)
		st, err := RunStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	golden := renderAll(study(policies[1], func(*StudyConfig) {}))
	dir := t.TempDir()

	for i, from := range policies {
		to := policies[1-i]
		path := filepath.Join(dir, fmt.Sprintf("resume-%d.jsonl", i))
		w, err := NewCheckpointWriterShape(path, shapeOf(from, ""))
		if err != nil {
			t.Fatal(err)
		}
		study(from, func(cfg *StudyConfig) { cfg.Checkpoint = w })
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Keep the header and the first record: the resume re-runs the
		// rest under the other policy.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(raw), "\n")
		if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		state, err := LoadCheckpointShape(path, shapeOf(to, ""))
		if err != nil {
			t.Fatalf("resume across a policy flip refused: %v", err)
		}
		if report := renderAll(study(to, func(cfg *StudyConfig) { cfg.Resume = state })); report != golden {
			t.Errorf("resume %s -> %s differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
				shapeOf(from, "").Compiled, shapeOf(to, "").Compiled, golden, report)
		}
	}

	var paths []string
	for i, pol := range policies {
		spec := ShardSpec{Index: i, Count: 2}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		w, err := NewCheckpointWriterShape(path, shapeOf(pol, spec.String()))
		if err != nil {
			t.Fatal(err)
		}
		study(pol, func(cfg *StudyConfig) { cfg.Checkpoint, cfg.Shard = w, &spec })
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := MergeShardCheckpoints(paths)
	if err != nil {
		t.Fatalf("merge of shards under different policies refused: %v", err)
	}
	if report := renderAll(study(policies[1], func(cfg *StudyConfig) { cfg.Resume = merged.State })); report != golden {
		t.Errorf("mixed-policy merge differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", golden, report)
	}

	legacy := filepath.Join(dir, "legacy.jsonl")
	if err := os.WriteFile(legacy, []byte(`{"type":"study","version":1,"n":6,"seed":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointShape(legacy, shapeOf(policies[0], "")); err != nil {
		t.Errorf("legacy header refused: %v", err)
	}
}
