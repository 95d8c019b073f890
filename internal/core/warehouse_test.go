package core

import (
	"sync"
	"testing"

	"hlfi/internal/fault"
)

// fakeWarehouse is a map-backed CellStore: the scheduler-side contract
// (lookup before execution, store after, skips replayed) tested without
// the storage layer. The real store's own behavior is covered in
// internal/warehouse.
type fakeWarehouse struct {
	mu    sync.Mutex
	cells map[fakeWhKey]*CellResult
	skips map[fakeWhKey]CheckpointSkip
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
	cp := *res
	f.cells[fakeWhKey{key, target, base}] = &cp
}

func (f *fakeWarehouse) StoreSkip(key CellKey, target, base int, skip CheckpointSkip) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.skips[fakeWhKey{key, target, base}] = skip
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
