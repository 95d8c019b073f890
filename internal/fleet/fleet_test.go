package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hlfi/internal/bench"
	"hlfi/internal/cli"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/telemetry"
)

// testProgram builds the cheapest benchmark once for the whole package.
var (
	progOnce sync.Once
	progVal  *core.Program
	progErr  error
)

func testProgram(t *testing.T) *core.Program {
	t.Helper()
	progOnce.Do(func() { progVal, progErr = bench.Build("quantumm") })
	if progErr != nil {
		t.Fatalf("build quantumm: %v", progErr)
	}
	return progVal
}

// churnyConfig is a coordinator config tuned for tests: short lease
// TTL (so a sweep every 75ms) and backoff, so expiry/retry churn
// happens in milliseconds.
func churnyConfig(t *testing.T, prog *core.Program) Config {
	t.Helper()
	return Config{
		Programs:   []*core.Program{prog},
		N:          8,
		Seed:       1,
		Metrics:    NewMetrics(),
		LeaseTTL:   300 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
		BackoffCap: 50 * time.Millisecond,
		RetryAfter: 20 * time.Millisecond,
		Logf:       t.Logf,
	}
}

// renderAll renders the full report set for a study the way ficompare
// and fiserve do.
func renderAll(st *core.Study) string {
	var buf bytes.Buffer
	cli.RenderExperiment(&buf, st, "all")
	return buf.String()
}

// cellCounts is the per-status cell count of the coordinator's /statusz
// payload.
func cellCounts(c *Coordinator) map[string]int {
	return c.Status().(map[string]any)["cells"].(map[string]int)
}

// TestFleetDuplicateCompletion: two workers complete the same cell (one
// from an expired lease); the second completion is deduped, the first
// wins, and the cell's stored result is untouched. A completion whose
// record no campaign can produce is refused before either, leaving the
// cell unresolved.
func TestFleetDuplicateCompletion(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	cfg.Cells = core.CanonicalCells(cfg.Programs, []fault.Category{fault.CatAll})
	events := telemetry.NewAggregator()
	cfg.Events = events
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No sweeper: this test drives completions directly.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()

	lease1, err := cl.Lease(ctx, "a")
	if err != nil || lease1.Status != StatusLease {
		t.Fatalf("lease1 = %+v, %v", lease1, err)
	}
	req := CompleteRequest{
		Worker: "a", Lease: lease1.Lease.ID,
		CellKey: lease1.Lease.CellKey,
		Result:  &core.CellRecord{Benign: -40, Crash: 53, Attempts: 13},
	}
	if resp, err := cl.Complete(ctx, req); err == nil || cellCounts(c)["done"] != 0 {
		t.Fatalf("invalid completion = %+v, %v; cells %v", resp, err, cellCounts(c))
	}
	req.Result = &core.CellRecord{Benign: 3, SDC: 2, Crash: 2, Hang: 1, Attempts: 8, DynCandidates: 42}
	resp, err := cl.Complete(ctx, req)
	if err != nil || !resp.OK || resp.Duplicate {
		t.Fatalf("first completion = %+v, %v", resp, err)
	}

	// Worker b reports the same cell from a stale lease ID.
	dup := req
	dup.Worker, dup.Lease = "b", 9999
	dup.Result = &core.CellRecord{Benign: 999} // would corrupt the study if accepted
	resp, err = cl.Complete(ctx, dup)
	if err != nil || !resp.OK || !resp.Duplicate {
		t.Fatalf("duplicate completion = %+v, %v (want OK+Duplicate)", resp, err)
	}
	if got := cfg.Metrics.Duplicates.Value(); got != 1 {
		t.Errorf("duplicates counter = %d, want 1", got)
	}

	// Resolve the study's other cell, so the driver returns the study.
	lease2, err := cl.Lease(ctx, "a")
	if err != nil || lease2.Status != StatusLease {
		t.Fatalf("lease2 = %+v, %v", lease2, err)
	}
	other := CompleteRequest{Worker: "a", Lease: lease2.Lease.ID, CellKey: lease2.Lease.CellKey,
		Result: &core.CellRecord{Benign: 8, Attempts: 8, DynCandidates: 42}}
	if resp, err := cl.Complete(ctx, other); err != nil || !resp.OK {
		t.Fatalf("second cell completion = %+v, %v", resp, err)
	}
	st, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	key := core.CellKey{Prog: prog.Name, Level: fault.LevelIR, Category: fault.CatAll}
	if res := st.Cells[key]; res == nil || res.Benign != 3 {
		t.Errorf("stored result = %+v, want the first completion (benign=3)", res)
	}
}

// TestFleetRetryBudgetDegrades: a cell whose every lease expires
// degrades to a typed fleet-failed skip instead of blocking the study;
// the checkpoint keeps that kind, and a coordinator restarted from it
// counts the cells as degraded.
func TestFleetRetryBudgetDegrades(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	cfg.Cells = core.CanonicalCells(cfg.Programs, []fault.Category{fault.CatAll}) // 2 cells: IR + ASM
	cfg.LeaseTTL = 40 * time.Millisecond
	cfg.MaxRetries = 2
	ckpt := filepath.Join(t.TempDir(), "degraded.jsonl")
	shape := core.CheckpointShape{N: cfg.N, Seed: cfg.Seed}
	writer, err := core.NewCheckpointWriterShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = writer
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()

	// Lease greedily and always abandon: every lease expires.
	deadline := time.After(60 * time.Second)
	for {
		resp, err := cl.Lease(ctx, "ghost")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusDone {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("study did not degrade; status: %+v", c.Status())
		case <-time.After(10 * time.Millisecond):
		}
	}
	<-c.Done()

	if got := cfg.Metrics.CellsDegraded.Value(); got != 2 {
		t.Errorf("cells degraded = %d, want 2", got)
	}
	if st, err := c.Wait(); err != nil || len(st.Cells) != 0 {
		t.Fatalf("study = %v, %v; want no cell with a result", st, err)
	}
	// Each cell burned its full budget: 1 + MaxRetries grants.
	if got, want := cfg.Metrics.Leases.Value(), uint64(2*(1+cfg.MaxRetries)); got != want {
		t.Errorf("leases = %d, want %d", got, want)
	}

	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := core.LoadCheckpointShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Skips) != 2 {
		t.Fatalf("checkpoint skips = %+v, want 2 fleet-failed records", state.Skips)
	}
	for key, skip := range state.Skips {
		if skip.Kind != core.SkipFleet {
			t.Errorf("cell %v skip kind = %q, want %q", key, skip.Kind, core.SkipFleet)
		}
	}
	restarted, err := New(Config{Programs: cfg.Programs, N: cfg.N, Seed: cfg.Seed,
		Cells: cfg.Cells, Resume: state})
	if err != nil {
		t.Fatal(err)
	}
	status := restarted.Status().(map[string]any)
	if got := status["cells"].(map[string]int)["degraded"]; got != 2 {
		t.Errorf("restarted coordinator counts %d degraded cells, want 2: %+v", got, status["cells"])
	}
	if got := restarted.cfg.Metrics.CellsDegraded.Value(); got != 0 {
		t.Errorf("restarted coordinator counted %d degradations, want 0 (its predecessor counted them)", got)
	}
}

// TestFleetCheckpointFailureRequeues: a checkpoint append failure is a
// hard study error on the fleet as in a local study. The completion it
// hits answers OK:false, the driver returns the *CheckpointWriteError,
// the file keeps its synced prefix, and a coordinator restarted on that
// file resumes the study to the single-process report.
func TestFleetCheckpointFailureRequeues(t *testing.T) {
	prog := testProgram(t)
	cells := core.CanonicalCells([]*core.Program{prog}, []fault.Category{fault.CatAll})
	golden, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 8, Seed: 1, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "broken.jsonl")
	shape := core.CheckpointShape{N: 8, Seed: 1}
	writer, err := core.NewCheckpointWriterShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
	cfg.Cells = cells
	cfg.Checkpoint = writer
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()
	// complete leases the next cell and reports its golden record.
	complete := func() *CompleteResponse {
		t.Helper()
		lease, err := cl.Lease(ctx, "a")
		if err != nil || lease.Status != StatusLease {
			t.Fatalf("lease = %+v, %v", lease, err)
		}
		resp, err := cl.Complete(ctx, CompleteRequest{Worker: "a", Lease: lease.Lease.ID,
			CellKey: lease.Lease.CellKey, Result: core.RecordOf(golden.Cells[lease.Lease.CellKey])})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := complete(); !resp.OK {
		t.Fatalf("first completion = %+v", resp)
	}
	// Close the underlying file: the first record is durable, and the
	// next append fails like a dying disk would.
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := complete(); resp.OK {
		t.Fatal("completion accepted despite checkpoint write failure")
	}
	var werr *core.CheckpointWriteError
	if _, err := c.Wait(); !errors.As(err, &werr) {
		t.Fatalf("study error = %v, want a *core.CheckpointWriteError", err)
	}

	// The file keeps its synced prefix: the header and the first record.
	state, err := core.LoadCheckpointShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Cells)+len(state.Skips) != 1 {
		t.Fatalf("checkpoint holds cells %v, skips %v; want the one synced record", state.Cells, state.Skips)
	}

	// A coordinator restarted on the file resumes the study: only the
	// unrecorded cell is leased, and the report equals the golden.
	resumed, err := core.OpenCheckpointAppend(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	cfg2 := churnyConfig(t, prog)
	cfg2.Cells, cfg2.Checkpoint, cfg2.Resume = cells, resumed, state
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	cl = &Client{Base: srv2.URL, Logf: t.Logf}
	if resp := complete(); !resp.OK {
		t.Fatalf("resumed completion = %+v", resp)
	}
	st, err := c2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(st), renderAll(golden); got != want {
		t.Errorf("resumed fleet report differs from golden:\n--- golden ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if got := cfg2.Metrics.Leases.Value(); got != 1 {
		t.Errorf("restarted coordinator granted %d leases, want 1", got)
	}
}

// TestClientRetriesTransient: the worker client retries 5xx and
// connection failures with backoff, and fails fast on 4xx.
func TestClientRetriesTransient(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, LeaseResponse{Status: StatusDone})
	}))
	defer srv.Close()

	cl := &Client{Base: srv.URL, Backoff: time.Millisecond, BackoffCap: 5 * time.Millisecond, Logf: t.Logf}
	resp, err := cl.Lease(context.Background(), "w")
	if err != nil {
		t.Fatalf("lease after transient failures: %v", err)
	}
	if resp.Status != StatusDone || calls != 3 {
		t.Errorf("status=%q calls=%d, want done after exactly 3 calls", resp.Status, calls)
	}

	// 4xx is permanent: no retry loop.
	calls = 0
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "bad cell", http.StatusBadRequest)
	}))
	defer srv2.Close()
	cl2 := &Client{Base: srv2.URL, Backoff: time.Millisecond, Logf: t.Logf}
	if _, err := cl2.Lease(context.Background(), "w"); err == nil {
		t.Fatal("4xx did not surface as an error")
	}
	if calls != 1 {
		t.Errorf("4xx retried %d times, want fail-fast single call", calls)
	}
}

// TestFleetDrain: draining stops lease grants; workers observe done.
func TestFleetDrain(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()

	dr, err := cl.Drain(ctx)
	if err != nil || !dr.OK {
		t.Fatalf("drain = %+v, %v", dr, err)
	}
	if dr.Unresolved != 10 { // quantumm: 2 levels x 5 categories
		t.Errorf("unresolved = %d, want 10", dr.Unresolved)
	}
	resp, err := cl.Lease(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDone {
		t.Errorf("lease after drain = %q, want %q", resp.Status, StatusDone)
	}
	// Nothing was leased, so the driver returns the empty partial study.
	if st, err := c.Wait(); !errors.Is(err, core.ErrAborted) || len(st.Cells) != 0 {
		t.Errorf("drained study = %v, %v; want no cell and core.ErrAborted", st, err)
	}
}
