package core

import (
	"path/filepath"
	"sync"
	"testing"

	"hlfi/internal/fault"
	"hlfi/internal/telemetry"
)

// fakeWarehouse is a map-backed CellStore: the scheduler-side contract
// (lookup before execution, store after, skips replayed) tested without
// the storage layer. The real store's own behavior is covered in
// internal/warehouse.
type fakeWarehouse struct {
	mu      sync.Mutex
	cells   map[fakeWhKey]*CellResult
	skips   map[fakeWhKey]CheckpointSkip
	lookups int
	stores  int
}

type fakeWhKey struct {
	key          CellKey
	target, base int
}

func newFakeWarehouse() *fakeWarehouse {
	return &fakeWarehouse{
		cells: make(map[fakeWhKey]*CellResult),
		skips: make(map[fakeWhKey]CheckpointSkip),
	}
}

func (f *fakeWarehouse) Lookup(key CellKey, target, base int) (*CellResult, *CheckpointSkip, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lookups++
	k := fakeWhKey{key, target, base}
	if res, ok := f.cells[k]; ok {
		cp := *res
		return &cp, nil, true
	}
	if skip, ok := f.skips[k]; ok {
		return nil, &skip, true
	}
	return nil, nil, false
}

func (f *fakeWarehouse) StoreCell(key CellKey, target, base int, res *CellResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	cp := *res
	f.cells[fakeWhKey{key, target, base}] = &cp
}

func (f *fakeWarehouse) StoreSkip(key CellKey, target, base int, skip CheckpointSkip) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.skips[fakeWhKey{key, target, base}] = skip
}

// TestStudyWarehouseWarmRun is the scheduler half of the warehouse
// differential oracle: a cold run populates the store, and the warm run
// resolves every cell from it — zero campaigns executed, identical
// results, warehouse_hit telemetry, and the hits still appended to the
// warm run's own checkpoint so -resume and the fleet render see them.
func TestStudyWarehouseWarmRun(t *testing.T) {
	wh := newFakeWarehouse()
	cold := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Warehouse = wh })
	if wh.stores != len(cold.Cells) {
		t.Fatalf("cold run stored %d cells, want %d", wh.stores, len(cold.Cells))
	}

	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	t.Cleanup(func() { testCampaignHook = nil })

	path := filepath.Join(t.TempDir(), "warm.jsonl")
	w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var cap eventCapture
	warm := runTinyStudy(t, func(cfg *StudyConfig) {
		cfg.Warehouse = wh
		cfg.Checkpoint = w
		cfg.Events = &cap
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if ran != 0 {
		t.Errorf("warm run executed %d campaigns, want 0 (every cell warehoused)", ran)
	}
	if len(warm.Cells) != len(cold.Cells) {
		t.Fatalf("warm run has %d cells, cold has %d", len(warm.Cells), len(cold.Cells))
	}
	for key, want := range cold.Cells {
		if got := warm.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v differs on the warm run:\ncold %+v\nwarm %+v", key, want, got)
		}
	}
	// Dyn counts come from profiling (one golden run per program/level),
	// not from injections, so the warm run still recomputes them.
	for key, want := range cold.Dyn {
		if got := warm.Dyn[key]; got != want {
			t.Errorf("Dyn[%v] = %d on the warm run, want %d", key, got, want)
		}
	}
	if got := len(cap.ofType(telemetry.EventWarehouseHit)); got != len(cold.Cells) {
		t.Errorf("got %d warehouse_hit events, want %d", got, len(cold.Cells))
	}
	if got := len(cap.ofType(telemetry.EventCellDone)); got != 0 {
		t.Errorf("got %d cell_done events on the warm run, want 0", got)
	}

	// The warm run's checkpoint is self-contained: resuming from it
	// needs neither the warehouse nor any execution.
	state, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Cells) != len(cold.Cells) {
		t.Errorf("warm checkpoint holds %d cells, want %d", len(state.Cells), len(cold.Cells))
	}
}

// TestStudyWarehouseWarmRunParallel: warehoused resolution composes with
// the cell-parallel scheduler — same oracle at Parallel=4.
func TestStudyWarehouseWarmRunParallel(t *testing.T) {
	wh := newFakeWarehouse()
	cold := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Warehouse = wh })

	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	t.Cleanup(func() { testCampaignHook = nil })

	warm := runTinyStudy(t, func(cfg *StudyConfig) {
		cfg.Warehouse = wh
		cfg.Parallel = 4
	})
	if ran != 0 {
		t.Errorf("parallel warm run executed %d campaigns, want 0", ran)
	}
	for key, want := range cold.Cells {
		if got := warm.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v differs on the parallel warm run:\ncold %+v\nwarm %+v", key, want, got)
		}
	}
}

// TestStudyWarehouseSkipReplay: a cached deterministic skip resolves the
// cell without a campaign, exactly like a checkpointed skip.
func TestStudyWarehouseSkipReplay(t *testing.T) {
	wh := newFakeWarehouse()
	cold := runTinyStudy(t, nil)

	skipped := CellKey{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatArith}
	wh.skips[fakeWhKey{skipped, 10, 10}] = CheckpointSkip{
		Kind: SkipNoCandidates, Err: "no arithmetic candidates",
	}

	ran := 0
	testCampaignHook = func(*Campaign) { ran++ }
	t.Cleanup(func() { testCampaignHook = nil })

	warm := runTinyStudy(t, func(cfg *StudyConfig) { cfg.Warehouse = wh })
	if ran != len(cold.Cells)-1 {
		t.Errorf("ran %d campaigns, want %d (one cell skip-warehoused)", ran, len(cold.Cells)-1)
	}
	if warm.Cells[skipped] != nil {
		t.Error("a warehoused skip still produced a cell result")
	}
	if len(warm.Cells) != len(cold.Cells)-1 {
		t.Errorf("warm run has %d cells, want %d", len(warm.Cells), len(cold.Cells)-1)
	}
}
