package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/core"
	"hlfi/internal/telemetry"
)

// The fleet adaptive oracle: quantumm at this shape stops four cells
// early and extends two, so the reallocation round is exercised end to
// end on every execution path below.
const (
	fleetAdaptiveN    = 24
	fleetAdaptiveSeed = 1
)

func fleetAdaptiveConfig() *adaptive.Config {
	return &adaptive.Config{Eps: 0.15, MinN: 8, Check: 4}
}

// TestAdaptiveStopDeterminism is the differential oracle of the
// adaptive engine: the same adaptive study run four ways — sequential,
// cell-parallel, as three shards merged, and as a fleet of three
// workers with one abandoned lease — must agree on every per-cell stop
// point and render byte-identical reports. The stopping decision and
// the reallocation plan are pure functions of the attempt-record
// stream, so scheduling, sharding, and churn must not move them.
func TestAdaptiveStopDeterminism(t *testing.T) {
	prog := testProgram(t)
	acfg := fleetAdaptiveConfig()
	study := func(mutate func(*core.StudyConfig)) *core.Study {
		t.Helper()
		cfg := core.StudyConfig{Programs: []*core.Program{prog},
			N: fleetAdaptiveN, Seed: fleetAdaptiveSeed, Adaptive: acfg}
		if mutate != nil {
			mutate(&cfg)
		}
		st, err := core.RunStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	goldenSt := study(nil)
	golden := renderAll(goldenSt)
	converged, extended := 0, 0
	for _, c := range goldenSt.Cells {
		if c.Adaptive.Converged && !c.Adaptive.Extended {
			converged++
		}
		if c.Adaptive.Extended {
			extended++
		}
	}
	if converged == 0 || extended == 0 {
		t.Fatalf("oracle fixture degenerate: %d converged, %d extended (want both nonzero)", converged, extended)
	}

	// Way 2: cell-level parallelism.
	if par := renderAll(study(func(cfg *core.StudyConfig) { cfg.Parallel = 4 })); par != golden {
		t.Fatalf("parallel adaptive run differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", golden, par)
	}

	// Way 3: three shard checkpoints merged and rendered. Shards run
	// round 1 only; the merge render recomputes the identical plan from
	// the persisted round-1 records and runs the extensions itself.
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		spec := core.ShardSpec{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		w, err := core.NewCheckpointWriterShape(path, core.CheckpointShape{
			N: fleetAdaptiveN, Seed: fleetAdaptiveSeed, Replay: "off",
			Adaptive: acfg.Signature(), Shard: spec.String()})
		if err != nil {
			t.Fatal(err)
		}
		shard := spec
		study(func(cfg *core.StudyConfig) { cfg.Checkpoint = w; cfg.Shard = &shard })
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := core.MergeShardCheckpoints(paths)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shape.Adaptive != acfg.Signature() {
		t.Fatalf("merged shape adaptive = %q, want %q", merged.Shape.Adaptive, acfg.Signature())
	}
	for key, res := range merged.State.Cells {
		if res.Adaptive.Extended {
			t.Fatalf("shard worker extended cell %v; extensions belong to the merge render", key)
		}
	}
	if mergedReport := renderAll(study(func(cfg *core.StudyConfig) { cfg.Resume = merged.State })); mergedReport != golden {
		t.Fatalf("shard-merge adaptive report differs:\n--- golden ---\n%s\n--- merged ---\n%s", golden, mergedReport)
	}

	// Way 4: a fleet of three workers, one of which takes a lease and
	// dies without completing it. The coordinator expires the lease,
	// retries the cell, computes the reallocation plan once all round-1
	// cells resolve, and reopens granted cells as extension leases.
	ckpt := filepath.Join(t.TempDir(), "fleet-adaptive.jsonl")
	shape := core.CheckpointShape{N: fleetAdaptiveN, Seed: fleetAdaptiveSeed,
		Replay: "off", Adaptive: acfg.Signature()}
	writer, err := core.NewCheckpointWriterShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
	cfg.N = fleetAdaptiveN
	cfg.Seed = fleetAdaptiveSeed
	cfg.Adaptive = acfg
	cfg.Checkpoint = writer
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := func(seed int64) *Client {
		return &Client{Base: srv.URL, JitterSeed: seed, Logf: t.Logf}
	}

	// w3 abandons its first lease and exits: the cell must be retried by
	// a survivor with the identical seed and stop point.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(context.Background(), WorkerConfig{
			Name: "w3", Client: client(3), Logf: t.Logf,
			BuildProgram:    func(string) (*core.Program, error) { return prog, nil },
			testAcquireHook: func(*Lease) bool { return false },
		})
		if err != nil {
			t.Errorf("w3: %v", err)
		}
	}()
	wg.Wait()

	for _, name := range []string{"w1", "w2"} {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(context.Background(), WorkerConfig{
				Name: name, Client: client(int64(len(name))), Logf: t.Logf,
				BuildProgram: func(string) (*core.Program, error) { return prog, nil },
			})
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	select {
	case <-c.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("adaptive fleet did not converge; status: %+v", c.Status())
	}
	wg.Wait()

	m := cfg.Metrics
	if m.Expiries.Value() < 1 {
		t.Errorf("lease expiries = %d, want >= 1 (w3's abandoned lease)", m.Expiries.Value())
	}
	if got := m.AdaptiveExtensions.Value(); got != uint64(extended) {
		t.Errorf("adaptive extension leases = %d, want %d", got, extended)
	}
	if m.CellsDegraded.Value() != 0 {
		t.Errorf("cells degraded = %d, want 0", m.CellsDegraded.Value())
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	// The coordinator's in-memory state and the durable checkpoint agree,
	// and both reproduce the single-process adaptive study byte for byte.
	loaded, err := core.LoadCheckpointShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Cells, c.State().Cells; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint cells differ from in-memory state:\nfile: %+v\nmem:  %+v", got, want)
	}
	fleetSt := study(func(cfg *core.StudyConfig) { cfg.Resume = loaded })
	for key, want := range goldenSt.Cells {
		got := fleetSt.Cells[key]
		if got == nil || *got != *want {
			t.Errorf("cell %v: fleet stop point differs:\ngolden %+v\nfleet  %+v", key, want, got)
		}
	}
	if got := renderAll(fleetSt); got != golden {
		t.Errorf("fleet adaptive report differs from single-process golden:\n--- golden ---\n%s\n--- fleet ---\n%s", golden, got)
	}
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
