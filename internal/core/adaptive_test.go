package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hlfi/internal/adaptive"
	"hlfi/internal/fault"
	"hlfi/internal/telemetry"
)

// The adaptive oracle fixture: tiny.c at this shape produces three
// early-converged cells and one extension, so every test below
// exercises both halves of the engine (the stopping rule and the
// reallocation round). CatCast has no candidates and soft-skips,
// covering the absent-cell path of the planner.
const (
	adaptiveOracleN    = 40
	adaptiveOracleSeed = 9
)

func adaptiveOracleConfig() *adaptive.Config {
	return &adaptive.Config{Eps: 0.1, MinN: 16, Check: 8}
}

// renderAdaptiveAll is renderAll plus the adaptive accuracy-vs-cost
// section, the full rendered surface of an adaptive study.
func renderAdaptiveAll(st *Study) string {
	return renderAll(st) + st.RenderAdaptive()
}

func runAdaptiveOracle(t *testing.T, mutate func(*StudyConfig)) *Study {
	t.Helper()
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{Programs: []*Program{p}, N: adaptiveOracleN, Seed: adaptiveOracleSeed,
		Cells: CanonicalCells([]*Program{p}, shardOracleCats), Adaptive: adaptiveOracleConfig()}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireAdaptiveShape guards the fixture: the oracle must actually
// converge some cells early and extend at least one, or the tests
// downstream prove nothing.
func requireAdaptiveShape(t *testing.T, st *Study) {
	t.Helper()
	converged, extended := 0, 0
	for _, c := range st.Cells {
		if c.Adaptive.Target == 0 {
			t.Fatalf("cell %s/%s/%s carries no adaptive target in an adaptive study", c.Prog, c.Level, c.Category)
		}
		if c.Adaptive.Converged && !c.Adaptive.Extended {
			converged++
		}
		if c.Adaptive.Extended {
			extended++
			if c.Adaptive.Target <= adaptiveOracleN {
				t.Fatalf("extended cell target %d not above baseline %d", c.Adaptive.Target, adaptiveOracleN)
			}
			if c.Adaptive.Round1.Attempts == 0 {
				t.Fatal("extended cell carries no round-1 snapshot")
			}
		}
	}
	if converged == 0 || extended == 0 {
		t.Fatalf("oracle fixture degenerate: %d converged, %d extended (want both nonzero; retune the config)", converged, extended)
	}
}

// TestAdaptiveStopDeterminismCore: the per-cell stop points and the full
// rendered report of an adaptive study are identical across the
// sequential scheduler and cell-level parallelism — the stopping
// decision is a function of the attempt-record prefix, never of
// scheduling.
func TestAdaptiveStopDeterminismCore(t *testing.T) {
	single := runAdaptiveOracle(t, nil)
	requireAdaptiveShape(t, single)
	golden := renderAdaptiveAll(single)

	for _, parallel := range []int{2, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			st := runAdaptiveOracle(t, func(cfg *StudyConfig) { cfg.Parallel = parallel })
			for key, want := range single.Cells {
				got := st.Cells[key]
				if got == nil || *got != *want {
					t.Errorf("cell %v differs under parallel=%d:\nseq %+v\npar %+v", key, parallel, want, got)
				}
			}
			if report := renderAdaptiveAll(st); report != golden {
				t.Errorf("parallel=%d report differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", parallel, golden, report)
			}
		})
	}
}

// TestAdaptiveShardMergeIdentical: shard workers run round 1 only;
// merging their checkpoints and rendering recomputes the identical
// reallocation plan from the persisted round-1 records, runs only the
// extension campaigns, and reproduces the single-process adaptive study
// byte for byte.
func TestAdaptiveShardMergeIdentical(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	single := runAdaptiveOracle(t, nil)
	requireAdaptiveShape(t, single)
	golden := renderAdaptiveAll(single)

	acfg := adaptiveOracleConfig()
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		spec := ShardSpec{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d-of-3.jsonl", i))
		w, err := NewCheckpointWriterShape(path, CheckpointShape{
			N: adaptiveOracleN, Seed: adaptiveOracleSeed, Replay: "off",
			Adaptive: acfg.Signature(), Shard: spec.String()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunStudy(StudyConfig{Programs: []*Program{p},
			N: adaptiveOracleN, Seed: adaptiveOracleSeed, Cells: CanonicalCells([]*Program{p}, shardOracleCats),
			Adaptive: acfg, Checkpoint: w, Shard: &spec}); err != nil {
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
	if got := merged.Shape.Adaptive; got != acfg.Signature() {
		t.Fatalf("merged shape adaptive = %q, want %q", got, acfg.Signature())
	}
	// Shard workers must not have extended anything: round 2 needs the
	// complete round-1 state no single shard can see.
	for key, res := range merged.State.Cells {
		if res.Adaptive.Extended {
			t.Fatalf("shard cell %v was extended by a shard worker", key)
		}
	}
	if err := merged.VerifyComplete(CanonicalCells([]*Program{p}, shardOracleCats)); err != nil {
		t.Fatal(err)
	}

	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	defer func() { testCampaignHook = nil }()
	st, err := RunStudy(StudyConfig{Programs: []*Program{p},
		N: adaptiveOracleN, Seed: adaptiveOracleSeed, Cells: CanonicalCells([]*Program{p}, shardOracleCats),
		Adaptive: acfg, Resume: merged.State})
	if err != nil {
		t.Fatal(err)
	}
	extensions := 0
	for _, c := range single.Cells {
		if c.Adaptive.Extended {
			extensions++
		}
	}
	if ran != extensions {
		t.Errorf("merge render ran %d campaigns, want exactly the %d extension(s)", ran, extensions)
	}
	for key, want := range single.Cells {
		got := st.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v differs after shard merge:\nsingle %+v\nmerged %+v", key, want, got)
		}
	}
	if report := renderAdaptiveAll(st); report != golden {
		t.Errorf("merged adaptive report differs from single-process run:\n--- single ---\n%s\n--- merged ---\n%s", golden, report)
	}
}

// TestAdaptiveResumeTruncatedIdentical: an adaptive study resumed from a
// truncated checkpoint — missing both a round-1 record and the extended
// record — recomputes exactly the missing cells and renders byte-
// identically to the uninterrupted adaptive run.
func TestAdaptiveResumeTruncatedIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	acfg := adaptiveOracleConfig()
	shape := CheckpointShape{N: adaptiveOracleN, Seed: adaptiveOracleSeed,
		Replay: "off", Adaptive: acfg.Signature()}
	w, err := NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	full := runAdaptiveOracle(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
	requireAdaptiveShape(t, full)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	golden := renderAdaptiveAll(full)

	state, err := LoadCheckpointShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	// The loader restores the adaptive payloads. Drop the extended cell
	// and one converged cell to simulate an interruption.
	var extKey, convKey *CellKey
	for key, res := range state.Cells {
		key := key
		switch {
		case res.Adaptive.Extended && extKey == nil:
			if res.Adaptive.Round1 != full.Cells[key].Adaptive.Round1 {
				t.Fatalf("round-1 snapshot did not round-trip for %v", key)
			}
			extKey = &key
		case res.Adaptive.Converged && convKey == nil:
			convKey = &key
		}
	}
	if extKey == nil || convKey == nil {
		t.Fatalf("checkpoint lacks an extended or converged record (ext=%v conv=%v)", extKey, convKey)
	}
	delete(state.Cells, *extKey)
	delete(state.Cells, *convKey)

	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	defer func() { testCampaignHook = nil }()
	var cap eventCapture
	resumed := runAdaptiveOracle(t, func(cfg *StudyConfig) {
		cfg.Resume = state
		cfg.Events = &cap
	})
	// The dropped converged cell re-runs in round 1; the dropped extended
	// cell re-runs round 1 and then its extension: three campaigns.
	if ran != 3 {
		t.Errorf("resume ran %d campaigns, want 3 (dropped round-1 cell, dropped cell's round 1, and its extension)", ran)
	}
	for key, want := range full.Cells {
		got := resumed.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v differs after truncated resume:\nfull    %+v\nresumed %+v", key, want, got)
		}
	}
	if report := renderAdaptiveAll(resumed); report != golden {
		t.Errorf("resumed adaptive report differs:\n--- full ---\n%s\n--- resumed ---\n%s", golden, report)
	}
	if got := len(cap.ofType(telemetry.EventAdaptivePlan)); got != 1 {
		t.Errorf("got %d adaptive_plan events, want 1", got)
	}
	if got := len(cap.ofType(telemetry.EventCellExtend)); got != 1 {
		t.Errorf("got %d cell_extend events, want 1", got)
	}
}

// TestLoadCheckpointShapeAdaptiveMismatch: a checkpoint written under
// one adaptive config refuses to resume under another — in both
// directions — with an error naming the file and the adaptive field,
// like every other identity field.
func TestLoadCheckpointShapeAdaptiveMismatch(t *testing.T) {
	dir := t.TempDir()
	acfg := adaptiveOracleConfig()

	write := func(name string, shape CheckpointShape) string {
		t.Helper()
		path := filepath.Join(dir, name)
		w, err := NewCheckpointWriterShape(path, shape)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	adaptivePath := write("adaptive.jsonl", CheckpointShape{N: 10, Seed: 5, Adaptive: acfg.Signature()})
	fixedPath := write("fixed.jsonl", CheckpointShape{N: 10, Seed: 5})

	cases := []struct {
		name, path string
		shape      CheckpointShape
	}{
		{"adaptive checkpoint, fixed-n resume", adaptivePath, CheckpointShape{N: 10, Seed: 5}},
		{"fixed-n checkpoint, adaptive resume", fixedPath, CheckpointShape{N: 10, Seed: 5, Adaptive: acfg.Signature()}},
		{"adaptive checkpoint, different adaptive config", adaptivePath, CheckpointShape{N: 10, Seed: 5, Adaptive: "eps=0.2,min=8,check=4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadCheckpointShape(tc.path, tc.shape)
			if err == nil {
				t.Fatal("mismatched adaptive signature accepted")
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.path) {
				t.Errorf("error does not name the file %s: %v", tc.path, err)
			}
			if !strings.Contains(msg, "adaptive sampling") {
				t.Errorf("error does not name the adaptive field: %v", err)
			}
		})
	}

	// Matching signatures still load.
	if _, err := LoadCheckpointShape(adaptivePath, CheckpointShape{N: 10, Seed: 5, Adaptive: acfg.Signature()}); err != nil {
		t.Errorf("matching adaptive signature refused: %v", err)
	}
}

// TestAdaptiveRenderAndJSON: the adaptive study renders the accuracy-
// vs-cost section and serializes the adaptive JSON block; a fixed-n
// study renders neither, keeping its output byte-identical to before
// the engine existed.
func TestAdaptiveRenderAndJSON(t *testing.T) {
	st := runAdaptiveOracle(t, nil)
	section := st.RenderAdaptive()
	if section == "" {
		t.Fatal("adaptive study renders no adaptive section")
	}
	for _, want := range []string{"Adaptive sampling", "converged", "extended", "budget:", "half-width"} {
		if !strings.Contains(section, want) {
			t.Errorf("adaptive section lacks %q:\n%s", want, section)
		}
	}
	aj := st.adaptiveJSON(fault.Categories)
	if aj == nil {
		t.Fatal("adaptive study serializes no adaptive JSON")
	}
	if aj.Eps != 0.1 || aj.MinN != 16 || aj.Check != 8 {
		t.Errorf("adaptive JSON config = %v/%v/%v, want 0.1/16/8", aj.Eps, aj.MinN, aj.Check)
	}
	if len(aj.Cells) != len(st.Cells) {
		t.Errorf("adaptive JSON has %d cells, study has %d", len(aj.Cells), len(st.Cells))
	}
	if aj.SavedActivated == 0 || aj.GrantedActivated == 0 {
		t.Errorf("adaptive JSON shows no savings/grants: %+v", aj)
	}

	// Experiment scoping: a fig3-scoped JSON carries only the
	// category-"all" rows, with the budget totals recomputed over them.
	scoped := st.adaptiveJSON([]fault.Category{fault.CatAll})
	if len(scoped.Cells) >= len(aj.Cells) {
		t.Fatalf("scoped adaptive JSON has %d cells, full has %d (want a strict subset)", len(scoped.Cells), len(aj.Cells))
	}
	for _, c := range scoped.Cells {
		if c.Category != fault.CatAll.String() {
			t.Errorf("scoped adaptive JSON leaks category %q", c.Category)
		}
	}

	fixed := runTinyStudy(t, nil)
	if got := fixed.RenderAdaptive(); got != "" {
		t.Errorf("fixed-n study renders an adaptive section:\n%s", got)
	}
	if fixed.adaptiveJSON(fault.Categories) != nil {
		t.Error("fixed-n study serializes an adaptive JSON block")
	}
}
