package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/core"
	"hlfi/internal/telemetry"
)

// The fleet adaptive fixture: quantumm at this shape stops four cells
// early and extends two, so a resumed coordinator has a reallocation
// round to plan.
const (
	fleetAdaptiveN    = 24
	fleetAdaptiveSeed = 1
)

func fleetAdaptiveConfig() *adaptive.Config {
	return &adaptive.Config{Eps: 0.15, MinN: 8, Check: 4}
}

// planLog keeps the adaptive_plan events of one run.
type planLog struct {
	mu    sync.Mutex
	plans []telemetry.Event
}

func (l *planLog) Record(e telemetry.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Type == telemetry.EventAdaptivePlan {
		l.plans = append(l.plans, e)
	}
}

// TestFleetResumeAdaptivePlan: a coordinator resumed from a complete
// adaptive checkpoint announces the adaptive_plan the local study and a
// local resume from the same checkpoint announce. A recipient whose
// record already carries its extension target counts as extended
// everywhere, though nobody re-runs it.
func TestFleetResumeAdaptivePlan(t *testing.T) {
	prog := testProgram(t)
	acfg := fleetAdaptiveConfig()
	shape := core.CheckpointShape{N: fleetAdaptiveN, Seed: fleetAdaptiveSeed,
		Replay: "off", Adaptive: acfg.Signature()}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := core.NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	var fresh, local, fleet planLog
	study := core.StudyConfig{Programs: []*core.Program{prog},
		N: fleetAdaptiveN, Seed: fleetAdaptiveSeed, Adaptive: acfg}
	run := study
	run.Checkpoint, run.Events = w, &fresh
	if _, err := core.RunStudy(run); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := core.LoadCheckpointShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	run = study
	run.Resume, run.Events = state, &local
	if _, err := core.RunStudy(run); err != nil {
		t.Fatal(err)
	}

	cfg := churnyConfig(t, prog)
	cfg.N, cfg.Seed, cfg.Adaptive = fleetAdaptiveN, fleetAdaptiveSeed, acfg
	cfg.Resume, cfg.Events = state, &fleet
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatalf("coordinator resumed from a complete checkpoint is not done; status: %+v", c.Status())
	}

	if len(fresh.plans) != 1 || fresh.plans[0].AdaptiveExtendedCells == 0 {
		t.Fatalf("fixture plans %+v, want one plan that extends cells", fresh.plans)
	}
	for name, got := range map[string][]telemetry.Event{"local resume": local.plans, "fleet resume": fleet.plans} {
		if !reflect.DeepEqual(got, fresh.plans) {
			t.Errorf("%s announced %+v, want %+v", name, got, fresh.plans)
		}
	}
}

// eventLog keeps every telemetry event of one run.
type eventLog struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (l *eventLog) Record(e telemetry.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// leaseByHand grants the next lease by hand, waiting while the study
// driver plans its next pass; nil once the study is done.
func leaseByHand(t *testing.T, c *Coordinator) *Lease {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		c.mu.Lock()
		lease, over := c.grantLocked("w", time.Now()), c.over
		c.mu.Unlock()
		switch {
		case lease != nil:
			return lease
		case over:
			return nil
		case time.Now().After(deadline):
			t.Fatalf("no lease and the study is not done; status: %+v", c.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetExtensionSoftSkip is the fleet half of the core test
// TestAdaptiveExtensionSoftSkip: a worker that reports a deadline skip
// for an extension lease abandons the extension, and the cell keeps its
// round-1 record. The returned study and its render equal the
// round-1-only study's, the checkpoint gains one abandonment line per
// abandoned extension, and each is announced by exactly one cell_extend
// event carrying the error. A coordinator restarted on the checkpoint
// grants no lease and returns the same study.
func TestFleetExtensionSoftSkip(t *testing.T) {
	prog := testProgram(t)
	acfg := fleetAdaptiveConfig()
	progs := []*core.Program{prog}
	dir := t.TempDir()

	// A one-shard study runs round 1 only: the reference, whose
	// checkpoint holds every round-1 record and skip.
	refShape := core.CheckpointShape{N: fleetAdaptiveN, Seed: fleetAdaptiveSeed,
		Replay: "off", Adaptive: acfg.Signature(), Shard: "0/1"}
	refPath := filepath.Join(dir, "round1.jsonl")
	rw, err := core.NewCheckpointWriterShape(refPath, refShape)
	if err != nil {
		t.Fatal(err)
	}
	round1, err := core.RunStudy(core.StudyConfig{Programs: progs, N: fleetAdaptiveN, Seed: fleetAdaptiveSeed,
		Adaptive: acfg, Shard: &core.ShardSpec{Index: 0, Count: 1}, Checkpoint: rw})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := core.LoadCheckpointShape(refPath, refShape)
	if err != nil {
		t.Fatal(err)
	}

	shape := refShape
	shape.Shard = ""
	path := filepath.Join(dir, "fleet.jsonl")
	w, err := core.NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	var events eventLog
	cfg := churnyConfig(t, prog)
	cfg.N, cfg.Seed, cfg.Adaptive = fleetAdaptiveN, fleetAdaptiveSeed, acfg
	cfg.Checkpoint, cfg.Events = w, &events
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Complete every round-1 lease with its reference record or skip,
	// and every extension lease with a deadline skip.
	deadline := core.SkipOf(core.ErrDeadline)
	extended := map[core.CellKey]bool{}
	for lease := leaseByHand(t, c); lease != nil; lease = leaseByHand(t, c) {
		req := CompleteRequest{Worker: "w", Lease: lease.ID, CellKey: lease.CellKey}
		switch res, ok := ref.Cells[lease.CellKey]; {
		case lease.N > fleetAdaptiveN:
			extended[lease.CellKey] = true
			req.Skip = &deadline
		case ok:
			req.Result = core.RecordOf(res)
		default:
			skip := ref.Skips[lease.CellKey]
			req.Skip = &skip
		}
		if resp, err := c.complete(req, time.Now()); err != nil || !resp.OK {
			t.Fatalf("completion of %v = %+v, %v", lease.CellKey, resp, err)
		}
	}
	if len(extended) != 2 {
		t.Fatalf("fixture extended %d cells, want 2", len(extended))
	}

	st, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range round1.Cells {
		if got := st.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v did not keep its round-1 record:\nround 1 %+v\ngot     %+v", key, want, got)
		}
	}
	if got, want := renderAll(st), renderAll(round1); got != want {
		t.Errorf("report differs from the round-1-only render:\n--- round 1 ---\n%s\n--- got ---\n%s", want, got)
	}

	// The checkpoint holds the reference's round-1 records, plus one
	// abandonment line per abandoned extension.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadCheckpointShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Cells, ref.Cells) || !reflect.DeepEqual(loaded.Skips, ref.Skips) {
		t.Errorf("checkpoint differs from the round-1 checkpoint:\n  got  %+v %+v\n  want %+v %+v",
			loaded.Cells, loaded.Skips, ref.Cells, ref.Skips)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(raw), "\n")-1, len(ref.Cells)+len(ref.Skips)+len(extended); got != want {
		t.Errorf("checkpoint holds %d records, want %d (round 1 plus one per abandoned extension)", got, want)
	}

	// Each abandoned extension is announced by one cell_extend event
	// carrying the error and no counts, as in a local study.
	var exts []telemetry.Event
	for _, e := range events.events {
		if e.Type == telemetry.EventCellExtend {
			exts = append(exts, e)
		}
	}
	if len(exts) != len(extended) {
		t.Errorf("%d cell_extend events %+v, want one for each of %d abandoned extensions", len(exts), exts, len(extended))
	}
	for key := range extended {
		want := core.KeyEvent(telemetry.EventCellExtend, key)
		want.Err = deadline.Err
		n := 0
		for _, e := range exts {
			if reflect.DeepEqual(e, want) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("cell %v: %d cell_extend events %+v, want exactly one", key, n, want)
		}
	}

	// A coordinator restarted on the checkpoint finds every round-1
	// record and every abandonment: it is done at construction, grants
	// no lease and returns the same study.
	cfg2 := churnyConfig(t, prog)
	cfg2.N, cfg2.Seed, cfg2.Adaptive, cfg2.Resume = fleetAdaptiveN, fleetAdaptiveSeed, acfg, loaded
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatalf("restarted coordinator is not done at construction; status: %+v", c2.Status())
	}
	st2, err := c2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg2.Metrics.Leases.Value(); got != 0 {
		t.Errorf("restarted coordinator granted %d leases, want 0", got)
	}
	if m := cfg2.Metrics; m.CellsDone.Value()+m.CellsSkipped.Value()+m.CellsDegraded.Value() != 0 {
		t.Errorf("restarted coordinator counted resolutions its predecessor counted: done %d, skipped %d, degraded %d",
			m.CellsDone.Value(), m.CellsSkipped.Value(), m.CellsDegraded.Value())
	}
	if !reflect.DeepEqual(st2.Cells, st.Cells) || renderAll(st2) != renderAll(st) {
		t.Errorf("restarted coordinator's study differs:\n  first     %+v\n  restarted %+v", st.Cells, st2.Cells)
	}
}
