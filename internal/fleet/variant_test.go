package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// TestCompleteRefusesVariantOfPaperCell sends a valid completion that
// names a paper cell's (benchmark, level, category) with "variant":1.
// The study runs paper cells only, so the completion names no cell of
// it: the coordinator must refuse it and resolve nothing, not file the
// record under the paper cell. The same body without the variant then
// resolves the cell.
func TestCompleteRefusesVariantOfPaperCell(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	cfg.Cells = core.CanonicalCells(cfg.Programs, []fault.Category{fault.CatAll})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	lease, err := (&Client{Base: srv.URL, Logf: t.Logf}).Lease(context.Background(), "a")
	if err != nil || lease.Status != StatusLease || lease.Lease.Variant != core.VariantPaper {
		t.Fatalf("lease = %+v, %v", lease, err)
	}
	l := lease.Lease
	complete := func(variant string) int {
		body := fmt.Sprintf(`{"worker":"a","lease":%d,"benchmark":%q,"level":%q,"category":%q%s,`+
			`"result":{"benign":8,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":8,"dynCandidates":3}}`,
			l.ID, l.Prog, l.Level, l.Category, variant)
		resp, err := http.Post(srv.URL+"/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := complete(`,"variant":1`); code != http.StatusBadRequest {
		t.Errorf("/complete for the calibrated variant of a paper cell answered %d, want 400", code)
	}
	if n := cellCounts(c); n["done"]+n["skipped"] != 0 {
		t.Fatalf("a completion naming another variant resolved cells: %v", n)
	}
	if code := complete(""); code != http.StatusOK || cellCounts(c)["done"] != 1 {
		t.Fatalf("the paper cell's own completion answered %d and resolved %v", code, cellCounts(c))
	}
}

// TestWorkerRunsLeasedVariant hands a worker one calibrated-LLFI lease
// from a stub coordinator. The worker must run the calibrated injector
// on the lease's seed and report the record core.RunStudy computes for
// that core.CalibrationCells key, under the same identity.
func TestWorkerRunsLeasedVariant(t *testing.T) {
	prog := testProgram(t)
	const n, seed = 8, 3
	key := core.CellKey{Prog: prog.Name, Level: fault.LevelIR, Category: fault.CatAll, Variant: core.VariantCalibrated}
	paper := key
	paper.Variant = core.VariantPaper
	var found bool
	for _, k := range core.CalibrationCells([]*core.Program{prog}) {
		found = found || k == key
	}
	if !found {
		t.Fatalf("%v is not a calibration cell", key)
	}
	st, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: n, Seed: seed,
		Cells: []core.CellKey{key, paper}})
	if err != nil {
		t.Fatal(err)
	}
	want := core.RecordOf(st.Cells[key])
	if reflect.DeepEqual(want, core.RecordOf(st.Cells[paper])) {
		t.Fatalf("calibrated and paper records agree (%+v): the test cannot tell the injectors apart", want)
	}

	var (
		mu      sync.Mutex
		granted bool
		got     *CompleteRequest
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if granted {
			writeJSON(w, LeaseResponse{Status: StatusDone})
			return
		}
		granted = true
		writeJSON(w, LeaseResponse{Status: StatusLease, Lease: &Lease{ID: 1, CellKey: key, N: n,
			Seed: core.CellSeed(seed, key), TTLMS: time.Minute.Milliseconds(), Grant: 1}})
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, HeartbeatResponse{OK: true})
	})
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		mu.Lock()
		got = &req
		mu.Unlock()
		writeJSON(w, CompleteResponse{OK: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	err = RunWorker(context.Background(), WorkerConfig{Name: "w1",
		Client:       &Client{Base: srv.URL, JitterSeed: 1, Logf: t.Logf},
		BuildProgram: func(string) (*core.Program, error) { return prog, nil }, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	switch {
	case got == nil:
		t.Fatal("the worker reported no completion")
	case got.CellKey != key:
		t.Errorf("completion names %v, want %v", got.CellKey, key)
	case got.Failure != "" || got.Skip != nil:
		t.Fatalf("completion failed: %q, skip %+v", got.Failure, got.Skip)
	case !reflect.DeepEqual(got.Result, want):
		t.Errorf("worker record %+v, want the study's %+v", got.Result, want)
	}
}

// TestNewRejectsCellOutsideStudy: the coordinator takes its cell list
// under the local study's rule, refusing a cell whose program is not in
// the study or whose variant its level does not support.
func TestNewRejectsCellOutsideStudy(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	cfg.Cells = []core.CellKey{{Prog: "nosuch", Level: fault.LevelIR, Category: fault.CatAll}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `program "nosuch" is not in the study`) {
		t.Errorf("cell of a missing program: %v", err)
	}
	cfg.Cells = []core.CellKey{{Prog: prog.Name, Level: fault.LevelASM, Category: fault.CatAll, Variant: core.VariantCalibrated}}
	var invalid *core.InvalidVariantError
	if _, err := New(cfg); !errors.As(err, &invalid) {
		t.Errorf("calibrated PINFI cell: %v, want a *core.InvalidVariantError", err)
	}
}
