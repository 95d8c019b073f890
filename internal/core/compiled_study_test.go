package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/obs"
	"hlfi/internal/telemetry"
)

// TestCompiledStudyOracle is the full-workload counterpart of
// TestCompiledDifferentialOracle: the complete example study — every
// benchmark, both levels, all five categories — must produce identical
// per-cell outcome vectors, activation counts, and rendered report
// bytes whether the compiled engines are on or off, sequentially and
// under the parallel scheduler, and with snapshot replay on as well,
// where masking convergence ends attempts early.
func TestCompiledStudyOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("compiled study oracle runs the full example study four times")
	}
	progs, err := bench.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	run := func(compiled *core.CompiledConfig, replay *core.ReplayConfig, om *obs.Metrics, events telemetry.Recorder, parallel int) *core.Study {
		st, err := core.RunStudy(core.StudyConfig{
			Programs: progs, N: 12, Seed: 3,
			Parallel: parallel, Compiled: compiled, Replay: replay, Obs: om, Events: events,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	baseline := run(nil, nil, nil, nil, 1)

	om := obs.New()
	sameStudy(t, "sequential", baseline, run(&core.CompiledConfig{}, nil, om, nil, 1))
	if om.CompiledAttempts.Value() == 0 {
		t.Error("sequential compiled run executed no attempts on the compiled engines")
	}
	if om.CompiledFallbacks.Value() != 0 {
		t.Errorf("sequential compiled run fell back %d times", om.CompiledFallbacks.Value())
	}
	if om.ReplayConverged.Value() != 0 {
		t.Errorf("%d attempts converged without snapshots", om.ReplayConverged.Value())
	}

	pom := obs.New()
	sameStudy(t, "parallel", baseline, run(&core.CompiledConfig{}, nil, pom, nil, 4))
	if pom.CompiledAttempts.Value() == 0 {
		t.Error("parallel compiled run executed no attempts on the compiled engines")
	}

	// Convergence is counted once per attempt in the replay stats, the
	// live registry, study_done and the telemetry summary.
	stats := &telemetry.ReplayStats{}
	com := obs.New()
	agg, done := telemetry.NewAggregator(), &studyDone{}
	sameStudy(t, "converging", baseline, run(&core.CompiledConfig{}, &core.ReplayConfig{Stats: stats}, com, telemetry.Multi(agg, done), 4))
	n := stats.Converged()
	if n == 0 {
		t.Fatal("no attempt converged with replay and the compiled engines on")
	}
	if got := uint64(com.ReplayConverged.Value()); got != n {
		t.Errorf("hlfi_replay_converged_total = %d, replay stats = %d", got, n)
	}
	if len(done.events) != 1 || done.events[0].ConvergedAttempts != n {
		t.Errorf("study_done events %+v, want one with convergedAttempts = %d", done.events, n)
	}
	if want := fmt.Sprintf(", %d converged (", n); !strings.Contains(agg.RenderTelemetry(), want) {
		t.Errorf("telemetry summary lacks %q:\n%s", want, agg.RenderTelemetry())
	}
}

// studyDone keeps the study_done events a study emits.
type studyDone struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (d *studyDone) Record(e telemetry.Event) {
	if e.Type == telemetry.EventStudyDone {
		d.mu.Lock()
		d.events = append(d.events, e)
		d.mu.Unlock()
	}
}
