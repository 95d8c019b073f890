package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/sched"
	"hlfi/internal/telemetry"
)

// captureRecorder collects the raw event stream.
type captureRecorder struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *captureRecorder) Record(e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func buildTwo(t *testing.T) []*core.Program {
	t.Helper()
	var progs []*core.Program
	for _, name := range []string{"bzip2m", "quantumm"} {
		p, err := bench.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

func renderAll(st *core.Study) string {
	return st.RenderFigure3() + st.RenderTableIV() + st.RenderFigure4() +
		st.RenderTableV() + st.RenderSummary()
}

// TestStudySchedulerDeterminism: running whole cells concurrently must
// not change a single byte of the rendered study, nor any cell result,
// nor the order of progress lines.
func TestStudySchedulerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduled pilot study is slow")
	}
	progs := buildTwo(t)
	run := func(parallel int) (*core.Study, []string) {
		var lines []string
		var mu sync.Mutex
		st, err := core.RunStudy(core.StudyConfig{
			Programs: progs,
			N:        25,
			Seed:     7,
			Parallel: parallel,
			Progress: func(s string) {
				mu.Lock()
				lines = append(lines, s)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, lines
	}
	serial, serialLines := run(1)
	sched4, schedLines := run(4)

	if len(serial.Cells) == 0 || len(serial.Cells) != len(sched4.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial.Cells), len(sched4.Cells))
	}
	for key, want := range serial.Cells {
		got := sched4.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v differs under scheduling:\nserial %+v\nsched  %+v", key, want, got)
		}
	}
	if a, b := renderAll(serial), renderAll(sched4); a != b {
		t.Fatalf("rendered study not byte-identical under scheduling:\n--- serial ---\n%s\n--- scheduled ---\n%s", a, b)
	}
	if strings.Join(serialLines, "\n") != strings.Join(schedLines, "\n") {
		t.Fatalf("progress order depends on scheduling:\n%v\nvs\n%v", serialLines, schedLines)
	}
}

// TestStudyTelemetryStream: the event stream has the canonical shape —
// one study_start, one cell event per cell in canonical cell order, one
// study_done with matching totals — even under concurrent scheduling.
func TestStudyTelemetryStream(t *testing.T) {
	p, err := bench.Build("quantumm")
	if err != nil {
		t.Fatal(err)
	}
	rec := &captureRecorder{}
	agg := telemetry.NewAggregator()
	// One cell more in flight than the budget allows: study_start
	// reports the clamped value.
	st, err := core.RunStudy(core.StudyConfig{
		Programs: []*core.Program{p},
		N:        10,
		Seed:     3,
		Parallel: sched.Budget() + 1,
		Events:   telemetry.Multi(rec, agg),
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := rec.events
	if len(ev) < 3 {
		t.Fatalf("got %d events, want study_start + cells + study_done", len(ev))
	}
	if ev[0].Type != telemetry.EventStudyStart || ev[len(ev)-1].Type != telemetry.EventStudyDone {
		t.Fatalf("stream not bracketed by study events: first=%s last=%s", ev[0].Type, ev[len(ev)-1].Type)
	}
	if ev[0].Parallel != sched.Budget() || ev[0].Cells != 10 {
		t.Fatalf("study_start misconfigured: %+v", ev[0])
	}

	var wantAttempts, wantActivated, cellEvents int
	for _, e := range ev[1 : len(ev)-1] {
		switch e.Type {
		case telemetry.EventCellDone:
			cellEvents++
			wantAttempts += e.Attempts
			wantActivated += e.Activated
			if e.DurationMS < e.ScanMS || e.Attempts < e.Activated {
				t.Errorf("inconsistent cell event: %+v", e)
			}
		case telemetry.EventCellSkip:
			cellEvents++
		default:
			t.Errorf("unexpected mid-stream event %q", e.Type)
		}
	}
	if cellEvents != 10 {
		t.Fatalf("got %d cell events, want one per cell (10)", cellEvents)
	}
	done := ev[len(ev)-1]
	if done.Cells != len(st.Cells) || done.Attempts != wantAttempts || done.Activated != wantActivated {
		t.Fatalf("study_done totals mismatch: %+v (want cells=%d attempts=%d activated=%d)",
			done, len(st.Cells), wantAttempts, wantActivated)
	}
	if tp := agg.Status().ThroughputPerSec; tp <= 0 {
		t.Fatalf("aggregator throughput = %f, want > 0", tp)
	}
	if sum := agg.RenderTelemetry(); !strings.Contains(sum, "quantumm") {
		t.Fatalf("telemetry summary missing cells:\n%s", sum)
	}
}

// TestStudyTelemetryOrderCanonical: cell events arrive in canonical cell
// order (program, level, category) regardless of completion order.
func TestStudyTelemetryOrderCanonical(t *testing.T) {
	p, err := bench.Build("quantumm")
	if err != nil {
		t.Fatal(err)
	}
	order := func(parallel int) []string {
		rec := &captureRecorder{}
		if _, err := core.RunStudy(core.StudyConfig{
			Programs: []*core.Program{p}, N: 8, Seed: 5, Parallel: parallel, Events: rec,
		}); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, e := range rec.events {
			if e.Type == telemetry.EventCellDone || e.Type == telemetry.EventCellSkip {
				ids = append(ids, e.Benchmark+"/"+e.Level+"/"+e.Category)
			}
		}
		return ids
	}
	serial, scheduled := order(1), order(6)
	if strings.Join(serial, ",") != strings.Join(scheduled, ",") {
		t.Fatalf("telemetry order depends on scheduling:\n%v\nvs\n%v", serial, scheduled)
	}
}

// TestStudySchedulerFirstError: a hard cell error cancels the study and
// the canonical first failing cell is reported, deterministically.
func TestStudySchedulerFirstError(t *testing.T) {
	p, err := bench.Build("quantumm")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		_, err := core.RunStudy(core.StudyConfig{
			Programs: []*core.Program{p}, N: -1, Seed: 1, Parallel: parallel,
		})
		if err == nil {
			t.Fatalf("parallel=%d: invalid N accepted", parallel)
		}
		if !strings.Contains(err.Error(), "cell {quantumm LLFI all}") {
			t.Fatalf("parallel=%d: error does not name the canonical first cell: %v", parallel, err)
		}
	}
}

// cancelOn cancels a study the first time it emits an event of type typ.
type cancelOn struct {
	captureRecorder
	typ    string
	cancel context.CancelFunc
}

func (c *cancelOn) Record(e telemetry.Event) {
	c.captureRecorder.Record(e)
	if e.Type == c.typ {
		c.cancel()
	}
}

// TestAdaptiveRound2Abort pins cancellation inside round 2: the study
// returns ErrAborted with the partial study (every round-1 record plus
// the extension that finished), emits exactly one study_abort, and a
// resume from its checkpoint runs the missing extension and renders the
// uninterrupted study.
func TestAdaptiveRound2Abort(t *testing.T) {
	progs := buildSome(t, "quantumm")
	acfg := &adaptive.Config{Eps: 0.15, MinN: 8, Check: 4}
	cfg := core.StudyConfig{Programs: progs, N: 24, Seed: 1, Adaptive: acfg}
	full, err := core.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	extended := 0
	for _, c := range full.Cells {
		if c.Adaptive.Extended {
			extended++
		}
	}
	if extended < 2 {
		t.Fatalf("fixture extends %d cells, want at least 2 (one finished, one cancelled)", extended)
	}
	golden := renderAll(full) + full.RenderAdaptive()

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	shape := core.CheckpointShape{N: cfg.N, Seed: cfg.Seed, Replay: "off", Adaptive: acfg.Signature()}
	w, err := core.NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelOn{typ: telemetry.EventCellExtend, cancel: cancel}
	aborted := cfg
	aborted.Checkpoint, aborted.Events = w, rec
	st, err := core.RunStudyContext(ctx, aborted)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err, core.ErrAborted) || st == nil {
		t.Fatalf("study cancelled in round 2 returned (%v, %v), want the partial study and ErrAborted", st != nil, err)
	}
	count := func(typ string) (n int) {
		for _, e := range rec.events {
			if e.Type == typ {
				n++
			}
		}
		return n
	}
	if count(telemetry.EventStudyAbort) != 1 || count(telemetry.EventStudyDone) != 0 || count(telemetry.EventCellExtend) != 1 {
		t.Errorf("%d study_abort, %d study_done, %d cell_extend events; want 1, 0, 1",
			count(telemetry.EventStudyAbort), count(telemetry.EventStudyDone), count(telemetry.EventCellExtend))
	}
	done := 0
	for _, c := range st.Cells {
		if c.Adaptive.Extended {
			done++
		}
	}
	if len(st.Cells) != len(full.Cells) || done != 1 {
		t.Errorf("partial study holds %d cells with %d extended, want %d cells with 1 extended", len(st.Cells), done, len(full.Cells))
	}

	state, err := core.LoadCheckpointShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Resume = state
	rst, err := core.RunStudy(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(rst) + rst.RenderAdaptive(); got != golden {
		t.Errorf("resumed study differs from the uninterrupted one:\n--- golden ---\n%s\n--- resumed ---\n%s", golden, got)
	}
}
