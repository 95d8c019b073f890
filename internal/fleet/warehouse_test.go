package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/core"
	"hlfi/internal/telemetry"
	"hlfi/internal/warehouse"
)

// whCapture keeps telemetry events in arrival order.
type whCapture struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *whCapture) Record(e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *whCapture) count(typ string) (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// studyStream is a run's event stream as the two delivery paths must
// agree on it: the fleet_* decisions dropped, and the timing fields and
// the executor width zeroed.
func studyStream(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if strings.HasPrefix(e.Type, "fleet_") {
			continue
		}
		e.DurationMS, e.ScanMS, e.Parallel = 0, 0, 0
		out = append(out, e)
	}
	return out
}

// requireSameStream fails the test unless the fleet's study stream
// equals the local study's, in order.
func requireSameStream(t *testing.T, leg string, local, fleet []telemetry.Event) {
	t.Helper()
	want, got := studyStream(local), studyStream(fleet)
	if reflect.DeepEqual(got, want) {
		return
	}
	lines := func(events []telemetry.Event) string {
		var sb strings.Builder
		for _, e := range events {
			b, _ := json.Marshal(e)
			sb.WriteString("\n    " + string(b))
		}
		return sb.String()
	}
	t.Errorf("%s: coordinator events differ from the local study's:\n  local%s\n  fleet%s", leg, lines(want), lines(got))
}

// TestWarehouseEventsMatchLocalStudy: the coordinator runs its study
// through the local study's driver, so its event stream is the local
// one. Over a warm store it announces warehouse_hit with the cached
// counts, and cell_skip for a cached skip (the program has no cast
// candidates); a cold adaptive fleet announces each cell's record, the
// plan and the extensions. Apart from the fleet_* decisions and the
// timing fields, both streams equal a local run's, in order.
func TestWarehouseEventsMatchLocalStudy(t *testing.T) {
	p, err := core.BuildProgram("tiny.c", `
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += i * i;
    print_int(s);
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*core.Program{p}
	store, err := warehouse.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	cache := store.ForStudy(core.CheckpointShape{N: 4, Seed: 1}, progs)
	study := core.StudyConfig{Programs: progs, N: 4, Seed: 1, Warehouse: cache}
	if _, err := core.RunStudy(study); err != nil {
		t.Fatal(err)
	}
	var local, fleet whCapture
	study.Events = &local
	if _, err := core.RunStudy(study); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Programs: progs, N: 4, Seed: 1, Warehouse: cache, Events: &fleet})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, "warm warehouse", local.events, fleet.events)
	if fleet.count(telemetry.EventWarehouseHit) == 0 || fleet.count(telemetry.EventCellSkip) == 0 {
		t.Error("the fixture needs a cached result and a cached skip")
	}

	// A cold adaptive fleet: one worker executes every lease, round 1 and
	// the extensions.
	prog := testProgram(t)
	acfg := fleetAdaptiveConfig()
	var localAdaptive, fleetAdaptive whCapture
	if _, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: fleetAdaptiveN,
		Seed: fleetAdaptiveSeed, Adaptive: acfg, Events: &localAdaptive}); err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
	cfg.N, cfg.Seed, cfg.Adaptive, cfg.Events = fleetAdaptiveN, fleetAdaptiveSeed, acfg, &fleetAdaptive
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	if err := RunWorker(context.Background(), WorkerConfig{
		Name: "w1", Client: &Client{Base: srv.URL, JitterSeed: 1, Logf: t.Logf}, Logf: t.Logf,
		BuildProgram: func(string) (*core.Program, error) { return prog, nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, "cold adaptive fleet", localAdaptive.events, fleetAdaptive.events)
	if fleetAdaptive.count(telemetry.EventCellExtend) == 0 {
		t.Error("the adaptive fixture needs an extension")
	}
}

// TestFleetWarehousePreResolution is the fleet half of the warehouse
// differential oracle: a cold fleet populates the store through its
// workers' completions, and a second coordinator over the same store
// resolves every cell at construction — done before any worker exists,
// zero leases granted, and the rendered report byte-identical to the
// single-process golden.
func TestFleetWarehousePreResolution(t *testing.T) {
	prog := testProgram(t)
	goldenSt, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := renderAll(goldenSt)

	store, err := warehouse.Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	shape := core.CheckpointShape{N: 8, Seed: 1, Replay: "off", Compiled: "on"}
	cache := store.ForStudy(shape, []*core.Program{prog})

	// Cold fleet: one worker executes everything; completions store back.
	ckptCold := filepath.Join(t.TempDir(), "cold.jsonl")
	writerCold, err := core.NewCheckpointWriterShape(ckptCold, shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
	cfg.Checkpoint = writerCold
	cfg.Warehouse = cache
	store.Hits, store.Misses, store.Stores = cfg.Metrics.WarehouseHits, cfg.Metrics.WarehouseMisses, cfg.Metrics.WarehouseStores
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	if err := RunWorker(context.Background(), WorkerConfig{
		Name: "w1", Client: &Client{Base: srv.URL, JitterSeed: 1, Logf: t.Logf}, Logf: t.Logf,
		BuildProgram: func(string) (*core.Program, error) { return prog, nil },
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("cold fleet did not converge; status: %+v", c.Status())
	}
	if err := writerCold.Close(); err != nil {
		t.Fatal(err)
	}
	coldSt, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.LoadCheckpointShape(ckptCold, shape)
	if err != nil {
		t.Fatal(err)
	}
	totalCells := len(cold.Cells) + len(cold.Skips)
	if got := cfg.Metrics.WarehouseMisses.Value(); got != uint64(totalCells) {
		t.Errorf("cold fleet: %d warehouse misses, want %d (every cell)", got, totalCells)
	}
	if got := cfg.Metrics.WarehouseStores.Value(); got == 0 {
		t.Error("cold fleet stored nothing back")
	}

	// Warm fleet: a fresh coordinator over the populated store must be
	// done at construction, with no worker and no lease.
	ckptWarm := filepath.Join(t.TempDir(), "warm.jsonl")
	writerWarm, err := core.NewCheckpointWriterShape(ckptWarm, shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := churnyConfig(t, prog)
	cfg2.Checkpoint = writerWarm
	cfg2.Warehouse = cache
	var cap whCapture
	cfg2.Events = &cap
	store.Hits, store.Misses, store.Stores = cfg2.Metrics.WarehouseHits, cfg2.Metrics.WarehouseMisses, cfg2.Metrics.WarehouseStores
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatalf("warm coordinator is not done at construction; status: %+v", c2.Status())
	}
	if got := cfg2.Metrics.WarehouseHits.Value(); got != uint64(totalCells) {
		t.Errorf("warm fleet: %d warehouse hits, want %d", got, totalCells)
	}
	if got := cfg2.Metrics.WarehouseMisses.Value(); got != 0 {
		t.Errorf("warm fleet: %d warehouse misses, want 0", got)
	}
	if got := cap.count(telemetry.EventWarehouseHit) + cap.count(telemetry.EventCellSkip); got != totalCells {
		t.Errorf("warm fleet announced %d cells, want %d", got, totalCells)
	}
	if warmSt, err := c2.Wait(); err != nil || !reflect.DeepEqual(warmSt.Cells, coldSt.Cells) {
		t.Errorf("warm coordinator study differs from the cold fleet's (%v)", err)
	}
	if err := writerWarm.Close(); err != nil {
		t.Fatal(err)
	}

	// The warm checkpoint renders byte-identical to the single-process
	// golden without re-running anything.
	loaded, err := core.LoadCheckpointShape(ckptWarm, shape)
	if err != nil {
		t.Fatal(err)
	}
	warmSt, err := core.RunStudy(core.StudyConfig{
		Programs: []*core.Program{prog}, N: 8, Seed: 1, Resume: loaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(warmSt); got != golden {
		t.Errorf("warehouse-resolved fleet report differs from golden:\n--- golden ---\n%s\n--- warm ---\n%s", golden, got)
	}

	// GET /warehouse on the warm coordinator classifies every cell as
	// cached; a coordinator without a warehouse answers 404.
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/warehouse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /warehouse = %d, want 200", resp.StatusCode)
	}
	var report struct {
		Dir    string         `json:"dir"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Dir != store.Dir() {
		t.Errorf("/warehouse dir = %q, want %q", report.Dir, store.Dir())
	}
	if cached := report.Counts[warehouse.StatusHit] + report.Counts[warehouse.StatusSkip]; cached != totalCells {
		t.Errorf("/warehouse classifies %d cells as cached (%+v), want %d", cached, report.Counts, totalCells)
	}

	cfg3 := churnyConfig(t, prog)
	c3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	srv3 := httptest.NewServer(c3.Handler())
	defer srv3.Close()
	resp3, err := http.Get(srv3.URL + "/warehouse")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("GET /warehouse without a store = %d, want 404", resp3.StatusCode)
	}
}
