package warehouse

import (
	"path/filepath"
	"sync"
	"testing"

	"hlfi/internal/adaptive"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/obs"
	"hlfi/internal/telemetry"
)

// capture is a minimal telemetry.Recorder for counting event types.
type capture struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *capture) Record(e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *capture) count(typ string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// diffStudy runs the tiny two-category study against the real store.
func diffStudy(t *testing.T, cache *StudyCache, mutate func(*core.StudyConfig)) *core.Study {
	t.Helper()
	p, err := core.BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.StudyConfig{
		Programs: []*core.Program{p},
		N:        10,
		Seed:     5,
		Cells:    core.CanonicalCells([]*core.Program{p}, []fault.Category{fault.CatAll, fault.CatArith}),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if cache != nil {
		cfg.Warehouse = cache
	}
	st, err := core.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func openDiffCache(t *testing.T, adaptiveSig string) *StudyCache {
	t.Helper()
	p, err := core.BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	s.Hits, s.Misses, s.Stores = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
	if adaptiveSig == "" {
		adaptiveSig = "off"
	}
	return s.ForStudy(core.CheckpointShape{
		N: 10, Seed: 5, Compiled: "on", Adaptive: adaptiveSig,
	}, []*core.Program{p})
}

// TestWarehouseDifferentialOracle is the end-to-end oracle against the
// real store: an uncached run, a cold populating run, and a warm run
// must produce identical cells, and the warm run must resolve every
// cell from disk — zero misses, zero executions — sequentially and on
// the parallel scheduler.
func TestWarehouseDifferentialOracle(t *testing.T) {
	plain := diffStudy(t, nil, nil)
	cache := openDiffCache(t, "")
	store := cache.Store()

	cold := diffStudy(t, cache, nil)
	if got := store.Misses.Value(); got != uint64(len(cold.Cells)) {
		t.Errorf("cold run: %d misses, want %d", got, len(cold.Cells))
	}
	if got := store.Stores.Value(); got != uint64(len(cold.Cells)) {
		t.Errorf("cold run: %d stores, want %d", got, len(cold.Cells))
	}
	for key, want := range plain.Cells {
		if got := cold.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v differs with the warehouse attached:\nplain %+v\ncold  %+v", key, want, got)
		}
	}

	for _, parallel := range []int{1, 4} {
		var cap capture
		hits0, misses0 := store.Hits.Value(), store.Misses.Value()
		warm := diffStudy(t, cache, func(cfg *core.StudyConfig) {
			cfg.Parallel = parallel
			cfg.Events = &cap
		})
		if got := store.Misses.Value() - misses0; got != 0 {
			t.Errorf("warm run (parallel=%d): %d misses, want 0", parallel, got)
		}
		if got := store.Hits.Value() - hits0; got != uint64(len(cold.Cells)) {
			t.Errorf("warm run (parallel=%d): %d hits, want %d", parallel, got, len(cold.Cells))
		}
		if got := cap.count(telemetry.EventCellDone); got != 0 {
			t.Errorf("warm run (parallel=%d): %d cell_done events, want 0 executions", parallel, got)
		}
		if got := cap.count(telemetry.EventWarehouseHit); got != len(cold.Cells) {
			t.Errorf("warm run (parallel=%d): %d warehouse_hit events, want %d", parallel, got, len(cold.Cells))
		}
		for key, want := range cold.Cells {
			if got := warm.Cells[key]; got == nil || *got != *want {
				t.Errorf("cell %v differs on the warm run (parallel=%d):\ncold %+v\nwarm %+v", key, parallel, want, got)
			}
		}
	}
}

// TestWarehouseDifferentialOracleAdaptive: with adaptive early stopping,
// round-1 records live at (N, N) and extensions at (target, N); a warm
// run recomputes the plan from the cached round-1 states and resolves
// the extensions from the warehouse too — still zero misses.
func TestWarehouseDifferentialOracleAdaptive(t *testing.T) {
	acfg, err := adaptive.Parse("eps=0.05,min=5,check=5")
	if err != nil {
		t.Fatal(err)
	}
	withAdaptive := func(cfg *core.StudyConfig) { cfg.Adaptive = acfg }

	cache := openDiffCache(t, acfg.Signature())
	store := cache.Store()
	cold := diffStudy(t, cache, withAdaptive)

	var cap capture
	misses0 := store.Misses.Value()
	warm := diffStudy(t, cache, func(cfg *core.StudyConfig) {
		withAdaptive(cfg)
		cfg.Events = &cap
	})
	if got := store.Misses.Value() - misses0; got != 0 {
		t.Errorf("adaptive warm run: %d misses, want 0", got)
	}
	if got := cap.count(telemetry.EventCellDone); got != 0 {
		t.Errorf("adaptive warm run: %d cell_done events, want 0 executions", got)
	}
	for key, want := range cold.Cells {
		if got := warm.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v differs on the adaptive warm run:\ncold %+v\nwarm %+v", key, want, got)
		}
	}
}
