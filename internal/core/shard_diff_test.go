package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hlfi/internal/fault"
)

// shardOracleCats includes CatCast, which has no candidates in the
// integer-only tinySrc, so shard merges carry soft-skip records
// alongside completed cells.
var shardOracleCats = []fault.Category{fault.CatAll, fault.CatArith, fault.CatCast}

// renderAll concatenates every campaign-derived report, so "byte
// identical" below covers the full rendered surface.
func renderAll(st *Study) string {
	return st.RenderFigure3() + st.RenderTableIV() + st.RenderFigure4() + st.RenderTableV() + st.RenderSummary()
}

// runShards runs one shard worker per index into dir and returns the
// checkpoint paths, mirroring what N ficompare -shard processes write.
func runShards(t *testing.T, p *Program, count int, dir string) []string {
	t.Helper()
	var paths []string
	for i := 0; i < count; i++ {
		spec := ShardSpec{Index: i, Count: count}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.jsonl", i, count))
		w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 6, Seed: 9, Replay: "off", Shard: spec.String()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
			Cells: CanonicalCells([]*Program{p}, shardOracleCats), Checkpoint: w, Shard: &spec}
		if _, err := RunStudy(cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// mergeAndRender merges the shard checkpoints and renders the study by
// resuming from the combined state — the exact path ficompare -merge
// takes. It asserts that no campaign re-runs during the merge render.
func mergeAndRender(t *testing.T, p *Program, paths []string) (*Study, string) {
	t.Helper()
	merged, err := MergeShardCheckpoints(paths)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shape.N != 6 || merged.Shape.Seed != 9 {
		t.Fatalf("merged shape = %+v, want n=6 seed=9", merged.Shape)
	}
	if err := merged.VerifyComplete(CanonicalCells([]*Program{p}, shardOracleCats)); err != nil {
		t.Fatal(err)
	}

	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	defer func() { testCampaignHook = nil }()
	st, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
		Cells: CanonicalCells([]*Program{p}, shardOracleCats), Resume: merged.State})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("merge render re-ran %d campaigns, want 0 (every cell restores)", ran)
	}
	return st, renderAll(st)
}

// TestShardKillResumeMerge: a shard worker killed mid-run leaves a
// partial checkpoint; the merge names exactly that shard and its owed
// cells, and append-resuming only that shard completes the set — the
// final merged report still matches the single-process run.
func TestShardKillResumeMerge(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
		Cells: CanonicalCells([]*Program{p}, shardOracleCats)})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths := runShards(t, p, 3, dir)

	// Emulate shard 1 dying after its first record: truncate its
	// checkpoint to the header plus the first cell/skip line — exactly
	// the file a killed worker leaves behind (every line is fsynced as
	// written, so a crash cuts the file at a line boundary).
	_, hdr1, err := readCheckpoint(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	cells := CanonicalCells([]*Program{p}, shardOracleCats)
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("shard 1 checkpoint has %d lines, want header plus at least 2 records", len(lines))
	}
	if err := os.WriteFile(paths[1], []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}

	// The merge itself succeeds (all headers present and consistent) but
	// completeness fails, attributing the owed cells to shard 1 alone.
	merged, err := MergeShardCheckpoints(paths)
	if err != nil {
		t.Fatal(err)
	}
	verr := merged.VerifyComplete(cells)
	inc, ok := verr.(*IncompleteShardsError)
	if !ok {
		t.Fatalf("got %v, want *IncompleteShardsError", verr)
	}
	if len(inc.Shards) != 1 || inc.Shards[0].Index != 1 || inc.Shards[0].File != paths[1] {
		t.Fatalf("incomplete = %+v, want only shard 1 (%s)", inc.Shards, paths[1])
	}

	// Resume only the dead shard, appending into its checkpoint — the
	// supervisor's restart path. Only the owed cells re-run.
	state, err := LoadCheckpointShape(paths[1], hdr1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenCheckpointAppend(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	spec := ShardSpec{Index: 1, Count: 3}
	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	defer func() { testCampaignHook = nil }()
	if _, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 6, Seed: 9,
		Cells: CanonicalCells([]*Program{p}, shardOracleCats), Shard: &spec, Resume: state, Checkpoint: w2}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	testCampaignHook = nil
	if ran == 0 {
		t.Fatal("shard resume ran no campaigns; expected it to finish the owed cells")
	}

	_, report := mergeAndRender(t, p, paths)
	if golden := renderAll(single); report != golden {
		t.Errorf("report after kill+resume+merge differs from single-process run:\n--- single ---\n%s\n--- merged ---\n%s",
			golden, report)
	}
}
