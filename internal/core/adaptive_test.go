package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestAdaptiveExtensionSoftSkip pins round 2's degrade path: an
// extension that soft-skips (here its wall-clock watchdog fires) keeps
// the cell's round-1 record. The progress line and a cell_extend event
// carrying the error say so, the checkpoint gains no line for it, and
// the study renders exactly like a study that ran round 1 only.
func TestAdaptiveExtensionSoftSkip(t *testing.T) {
	full := runAdaptiveOracle(t, nil)
	requireAdaptiveShape(t, full)
	extended := 0
	for _, c := range full.Cells {
		if c.Adaptive.Extended {
			extended++
		}
	}
	// A one-shard study runs round 1 only: the reference.
	round1 := runAdaptiveOracle(t, func(cfg *StudyConfig) { cfg.Shard = &ShardSpec{Index: 0, Count: 1} })

	testCampaignHook = func(c *Campaign) {
		if c.N > adaptiveOracleN {
			c.Deadline = time.Nanosecond
		}
	}
	defer func() { testCampaignHook = nil }()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	shape := CheckpointShape{N: adaptiveOracleN, Seed: adaptiveOracleSeed, Replay: "off",
		Adaptive: adaptiveOracleConfig().Signature()}
	w, err := NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	var cap eventCapture
	var lines []string
	st := runAdaptiveOracle(t, func(cfg *StudyConfig) {
		cfg.Checkpoint, cfg.Events = w, &cap
		cfg.Progress = func(l string) { lines = append(lines, l) }
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for key, want := range round1.Cells {
		if got := st.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v did not keep its round-1 record:\nround 1 %+v\ngot     %+v", key, want, got)
		}
	}
	if got, want := renderAdaptiveAll(st), renderAdaptiveAll(round1); got != want {
		t.Errorf("report differs from the round-1-only render:\n--- round 1 ---\n%s\n--- got ---\n%s", want, got)
	}
	abandoned := 0
	for _, l := range lines {
		if strings.Contains(l, "adaptive extension abandoned") && strings.HasSuffix(l, "; keeping round-1 record") {
			abandoned++
		}
	}
	if abandoned != extended {
		t.Errorf("%d abandoned-extension progress lines, want %d:\n%s", abandoned, extended, strings.Join(lines, "\n"))
	}
	exts := cap.ofType(telemetry.EventCellExtend)
	if len(exts) != extended {
		t.Errorf("%d cell_extend events, want %d", len(exts), extended)
	}
	for _, e := range exts {
		if !strings.Contains(e.Err, "deadline") || e.Attempts != 0 {
			t.Errorf("abandoned cell_extend event %+v: want the deadline error and no counts", e)
		}
	}

	// The checkpoint holds one line per round-1 record and one
	// abandonment line per abandoned extension; every cell's record is
	// its round-1 record.
	state, err := LoadCheckpointShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range round1.Cells {
		if got := state.Cells[key]; got == nil || *got != *want {
			t.Errorf("checkpoint's last record for %v is not the round-1 record:\nround 1 %+v\ngot     %+v", key, want, got)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(raw), "\n")-1, len(state.Cells)+len(state.Skips)+extended; got != want {
		t.Errorf("checkpoint holds %d records, want %d (round 1 plus one per abandoned extension)", got, want)
	}

	// -resume finds every round-1 record and every abandonment: it runs
	// no campaign and renders the same report.
	testCampaignHook = func(c *Campaign) {
		t.Errorf("resumed study ran %s/%s/%s to %d", c.Prog.Name, c.Level, c.Category, c.N)
	}
	resumed := runAdaptiveOracle(t, func(cfg *StudyConfig) { cfg.Resume = state })
	if got, want := renderAdaptiveAll(resumed), renderAdaptiveAll(st); got != want {
		t.Errorf("resumed report differs:\n--- first run ---\n%s\n--- resumed ---\n%s", want, got)
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
