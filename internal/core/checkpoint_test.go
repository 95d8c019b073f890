package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hlfi/internal/fault"
	"hlfi/internal/obs"
	"hlfi/internal/telemetry"
)

// runTinyStudy runs the two-cell study over tinySrc with the given extra
// config applied.
func runTinyStudy(t *testing.T, mutate func(*StudyConfig)) *Study {
	t.Helper()
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{
		Programs: []*Program{p},
		N:        10,
		Seed:     5,
		Cells:    CanonicalCells([]*Program{p}, []fault.Category{fault.CatAll, fault.CatArith}),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointRoundTrip: a study checkpoints every completed cell; the
// loader restores records equal to the in-memory results.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	state, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Cells) != len(st.Cells) {
		t.Fatalf("checkpoint holds %d cells, study has %d", len(state.Cells), len(st.Cells))
	}
	for key, want := range st.Cells {
		got := state.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v does not round-trip:\nstudy      %+v\ncheckpoint %+v", key, want, got)
		}
	}

	// Header validation refuses a mismatched study shape.
	if _, err := LoadCheckpointShape(path, CheckpointShape{N: 20, Seed: 5}); err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("mismatched -n accepted: %v", err)
	}
	if _, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 6}); err == nil {
		t.Error("mismatched -seed accepted")
	}
}

// TestCheckpointSeedingDiscipline: every study draws one sequential
// stream per cell. A header keeps its bytes (no seeding field), an
// explicit "seeding":"sequential" still loads, and a header written
// under the removed per-attempt discipline (-cell-workers > 1) is
// refused with a typed error naming the removed flag.
func TestCheckpointSeedingDiscipline(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.jsonl")
	w, err := NewCheckpointWriterShape(seq, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = `{"type":"study","version":1,"n":10,"seed":5,"replay":"off","compiled":"off","adaptive":"off"`
	if want := hdr + "}\n"; string(raw) != want {
		t.Errorf("sequential header = %s, want %s", raw, want)
	}
	file := func(name, header string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		body := header + "\n" + `{"type":"skip","benchmark":"tiny.c","level":"LLFI","category":"cast","kind":"no-candidates","err":"x"}` + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	explicit := file("explicit.jsonl", hdr+`,"seeding":"sequential"}`)
	if st, err := LoadCheckpointShape(explicit, CheckpointShape{N: 10, Seed: 5}); err != nil || len(st.Skips) != 1 {
		t.Errorf("explicit sequential header: %v, want it loaded with its skip", err)
	}
	par := file("par.jsonl", hdr+`,"seeding":"per-attempt"}`)
	_, err = LoadCheckpointShape(par, CheckpointShape{N: 10, Seed: 5})
	var hm *HeaderMismatchError
	if !errors.As(err, &hm) || hm.Field != "seeding" || hm.Got != "per-attempt" || !strings.Contains(err.Error(), "-cell-workers") {
		t.Errorf("resume of a per-attempt checkpoint: %v, want a seeding *HeaderMismatchError naming -cell-workers", err)
	}
}

// TestCheckpointResumeIdentical: a study resumed from a partial
// checkpoint equals the uninterrupted study cell for cell, and the
// resumed cells are never recomputed.
func TestCheckpointResumeIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
	w.Close()

	state, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Drop one cell to simulate an interruption mid-study.
	dropped := CellKey{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatArith}
	if state.Cells[dropped] == nil {
		t.Fatalf("expected cell %v in checkpoint", dropped)
	}
	delete(state.Cells, dropped)

	ran := 0
	testCampaignHook = func(c *Campaign) { ran++ }
	t.Cleanup(func() { testCampaignHook = nil })

	var cap eventCapture
	resumed := runTinyStudy(t, func(cfg *StudyConfig) {
		cfg.Resume = state
		cfg.Events = &cap
	})
	if ran != 1 {
		t.Errorf("resumed study ran %d campaigns, want only the dropped cell", ran)
	}
	if len(resumed.Cells) != len(full.Cells) {
		t.Fatalf("resumed study has %d cells, want %d", len(resumed.Cells), len(full.Cells))
	}
	for key, want := range full.Cells {
		got := resumed.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v differs after resume:\nfull    %+v\nresumed %+v", key, want, got)
		}
	}
	if got := len(cap.ofType(telemetry.EventCellResume)); got != len(full.Cells)-1 {
		t.Errorf("got %d cell_resume events, want %d", got, len(full.Cells)-1)
	}
	if got := len(cap.ofType(telemetry.EventCellDone)); got != 1 {
		t.Errorf("got %d cell_done events, want 1 (the recomputed cell)", got)
	}
	// Dyn counts (Table IV) are recomputed by profiling on resume and
	// must agree with the uninterrupted run.
	for key, want := range full.Dyn {
		if got := resumed.Dyn[key]; got != want {
			t.Errorf("Dyn[%v] = %d after resume, want %d", key, got, want)
		}
	}
}

// TestCheckpointSkipRecords: soft-skipped cells are recorded and honored
// on resume without re-running.
func TestCheckpointSkipRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Make the IR/all cell exhaust its activation budget: soft skip.
	hookInjector(t, fault.LevelIR, fault.CatAll, func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		return func(*rand.Rand) fault.Outcome { return fault.OutcomeNotActivated }, 42, nil
	})
	runTinyStudy(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
	w.Close()

	state, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	skipKey := CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	skip, ok := state.Skips[skipKey]
	if !ok || skip.Kind != SkipNotActivated {
		t.Fatalf("skip record = %+v (present=%v), want kind %q", skip, ok, SkipNotActivated)
	}

	// Resume honors the skip: no campaign runs for it, and it replays as
	// a cell_skip event.
	testCampaignHook = nil
	ran := 0
	testCampaignHook = func(c *Campaign) {
		if c.Level == skipKey.Level && c.Category == skipKey.Category {
			ran++
		}
	}
	var cap eventCapture
	st := runTinyStudy(t, func(cfg *StudyConfig) {
		cfg.Resume = state
		cfg.Events = &cap
	})
	if ran != 0 {
		t.Error("resumed study re-ran a checkpointed skip")
	}
	if st.Cells[skipKey] != nil {
		t.Error("skipped cell present in resumed results")
	}
	if len(cap.ofType(telemetry.EventCellSkip)) != 1 {
		t.Errorf("got %d cell_skip events on resume, want 1", len(cap.ofType(telemetry.EventCellSkip)))
	}
}

// failingFile is a checkpointFile whose writes start failing after
// `okWrites` successful ones (or whose Sync always fails when failSync
// is set), for exercising the checkpoint writer's error path.
type failingFile struct {
	okWrites int
	failSync bool
	writes   int
}

func (f *failingFile) Write(p []byte) (int, error) {
	f.writes++
	if !f.failSync && f.writes > f.okWrites {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func (f *failingFile) Sync() error {
	if f.failSync && f.writes > f.okWrites {
		return errors.New("fsync: I/O error")
	}
	return nil
}

func (f *failingFile) Close() error { return nil }

// TestCheckpointWriterFailure: a failed write (or fsync) of a cell
// record surfaces as a typed *CheckpointWriteError, the writer goes
// sticky (no further bytes reach the file), and a checkpointed study
// hitting it aborts as a hard error instead of finishing with a
// silently truncated checkpoint.
func TestCheckpointWriterFailure(t *testing.T) {
	for _, mode := range []string{"write", "fsync"} {
		t.Run(mode, func(t *testing.T) {
			ff := &failingFile{okWrites: 1, failSync: mode == "fsync"}
			w := &CheckpointWriter{path: "fake.jsonl", f: ff, enc: json.NewEncoder(ff)}
			key := CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
			res := &CellResult{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll, Benign: 1, Attempts: 1}

			if err := w.Cell(key, res); err != nil { // first append: within okWrites
				t.Fatalf("first append failed early: %v", err)
			}
			err := w.Cell(key, res)
			var werr *CheckpointWriteError
			if !errors.As(err, &werr) {
				t.Fatalf("second append error = %v, want *CheckpointWriteError", err)
			}
			if werr.Path != "fake.jsonl" {
				t.Errorf("error names path %q, want fake.jsonl", werr.Path)
			}

			// Sticky: the writer refuses further appends without touching
			// the file again.
			writesBefore := ff.writes
			if err := w.Skip(key, SkipOf(ErrNoCandidates)); !errors.As(err, &werr) {
				t.Fatalf("append after failure = %v, want the sticky *CheckpointWriteError", err)
			}
			if ff.writes != writesBefore {
				t.Errorf("sticky writer still wrote to the file (%d -> %d writes)", writesBefore, ff.writes)
			}
		})
	}

	// End to end: a study whose checkpoint writer fails mid-run aborts
	// with the typed error instead of completing.
	ff := &failingFile{okWrites: 2}
	w := &CheckpointWriter{path: "fake.jsonl", f: ff, enc: json.NewEncoder(ff)}
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunStudy(StudyConfig{
		Programs:   []*Program{p},
		N:          10,
		Seed:       5,
		Cells:      CanonicalCells([]*Program{p}, []fault.Category{fault.CatAll, fault.CatArith}),
		Checkpoint: w,
	})
	var werr *CheckpointWriteError
	if !errors.As(err, &werr) {
		t.Fatalf("study with failing checkpoint writer returned %v, want *CheckpointWriteError", err)
	}
}

// TestCheckpointTornTail: a SIGKILL mid-append leaves one torn final
// line with no trailing newline; the loader drops that tail (the cell
// re-runs) instead of refusing the whole checkpoint. Corruption
// anywhere else still fails the load.
func TestCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
	w.Close()

	// Append a torn record: a prefix of a valid cell line, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"type":"cell","benchmark":"tiny.c","level":"LL`)
	f.Close()

	state, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatalf("torn-tail checkpoint refused: %v", err)
	}
	if len(state.Cells) != len(full.Cells) {
		t.Errorf("torn-tail load restored %d cells, want %d", len(state.Cells), len(full.Cells))
	}

	// The same junk mid-file (followed by valid content) is corruption.
	bad := filepath.Join(dir, "bad.jsonl")
	data, _ := os.ReadFile(path)
	data = append(data, '\n')
	data = append(data, []byte(`{"type":"study","version":1,"n":10,"seed":5}`+"\n")...)
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointShape(bad, CheckpointShape{N: 10, Seed: 5}); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

// TestCheckpointAppendResume: a resumed run appending to the same file
// leaves a checkpoint that restores the full study.
func TestCheckpointAppendResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
	w.Close()

	state, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dropped := CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatArith}
	delete(state.Cells, dropped)

	w2, err := OpenCheckpointAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	runTinyStudy(t, func(cfg *StudyConfig) {
		cfg.Resume = state
		cfg.Checkpoint = w2
	})
	w2.Close()

	// The file now carries the original cells plus the recomputed one
	// appended (a duplicate line for the dropped cell is fine: last
	// record wins). A fresh load restores the complete study.
	state2, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(state2.Cells) != len(full.Cells) {
		t.Fatalf("appended checkpoint restores %d cells, want %d", len(state2.Cells), len(full.Cells))
	}
	for key, want := range full.Cells {
		got := state2.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v wrong after append-resume: %+v vs %+v", key, want, got)
		}
	}
}

// TestLoadCheckpointRejectsInvalidRecord: a cell line whose counts no
// campaign can produce fails the load with a typed *InvalidRecordError
// instead of rendering impossible rates.
func TestLoadCheckpointRejectsInvalidRecord(t *testing.T) {
	header := `{"type":"study","version":1,"n":20,"seed":1}` + "\n"
	cell := `{"type":"cell","benchmark":"bzip2m","level":"LLFI","category":"all","result":%s}` + "\n"
	for name, result := range map[string]string{
		"negative count":    `{"benign":-40,"sdc":7,"crash":53,"hang":0,"notActivated":0,"attempts":20,"dynCandidates":9}`,
		"attempts mismatch": `{"benign":10,"sdc":5,"crash":5,"hang":0,"notActivated":0,"attempts":21,"dynCandidates":9}`,
		"nothing activated": `{"benign":0,"sdc":0,"crash":0,"hang":0,"notActivated":4,"attempts":4,"dynCandidates":9}`,
		"fixed-n round 1":   `{"benign":20,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":20,"dynCandidates":9,"round1":{"benign":1,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":1}}`,
		"negative round 1":  `{"benign":20,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":20,"dynCandidates":9,"target":20,"round1":{"benign":-1,"sdc":2,"crash":0,"hang":0,"notActivated":0,"attempts":1}}`,
	} {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, []byte(header+fmt.Sprintf(cell, result)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpointShape(path, CheckpointShape{N: 20, Seed: 1})
		var ire *InvalidRecordError
		if !errors.As(err, &ire) {
			t.Errorf("%s: load returned %v, want *InvalidRecordError", name, err)
		}
	}
}

// TestResumedSkipCountsAsSkipped: /metrics reads the cell series from
// the event stream, so a resumed study counts its restored results as
// resumed and its restored skips as skipped, exactly as /statusz does.
func TestResumedSkipCountsAsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	shape := CheckpointShape{N: 10, Seed: 5}
	w, err := NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	cells := func(cfg *StudyConfig) {
		cfg.Cells = CanonicalCells(cfg.Programs, []fault.Category{fault.CatAll, fault.CatCast})
	}
	runTinyStudy(t, func(cfg *StudyConfig) { cells(cfg); cfg.Checkpoint = w })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := LoadCheckpointShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	om, agg := obs.New(), telemetry.NewAggregator()
	BindMetrics(om, agg, nil, nil)
	runTinyStudy(t, func(cfg *StudyConfig) { cells(cfg); cfg.Resume, cfg.Obs, cfg.Events = state, om, agg })
	if err := om.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	st := agg.Status()
	if st.CellsResumed != 2 || st.CellsSkipped != 2 {
		t.Fatalf("/statusz resumed %d, skipped %d; want 2 restored results and 2 restored skips", st.CellsResumed, st.CellsSkipped)
	}
	if om.CellsResumed.Value() != 2 || om.CellsSkipped.Value() != 2 || om.CellsDone.Value() != 0 {
		t.Errorf("/metrics resumed %d, skipped %d, done %d; want 2, 2, 0",
			om.CellsResumed.Value(), om.CellsSkipped.Value(), om.CellsDone.Value())
	}
}
