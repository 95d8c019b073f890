package fleet

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

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
