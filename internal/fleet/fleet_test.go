package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
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
	if resp, err := cl.Complete(ctx, req); err == nil || len(c.State().Cells) != 0 {
		t.Fatalf("invalid completion = %+v, %v; resolved %d cells", resp, err, len(c.State().Cells))
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

	key := core.CellKey{Prog: prog.Name, Level: fault.LevelIR, Category: fault.CatAll}
	if res := c.State().Cells[key]; res == nil || res.Benign != 3 {
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
	st := c.State()
	if len(st.Skips) != 2 {
		t.Fatalf("skips = %+v, want 2 fleet-failed records", st.Skips)
	}
	for key, skip := range st.Skips {
		if skip.Kind != core.SkipFleet {
			t.Errorf("cell %v skip kind = %q, want %q", key, skip.Kind, core.SkipFleet)
		}
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
	if !reflect.DeepEqual(state.Skips, st.Skips) {
		t.Errorf("checkpoint skips = %+v, want the coordinator's %+v", state.Skips, st.Skips)
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
}

// TestFleetCheckpointFailureRequeues: a checkpoint append failure fails
// the lease (the completion is not accepted), detaches the sticky
// writer, and the requeued cell re-resolves in memory.
func TestFleetCheckpointFailureRequeues(t *testing.T) {
	prog := testProgram(t)
	ckpt := filepath.Join(t.TempDir(), "broken.jsonl")
	writer, err := core.NewCheckpointWriterShape(ckpt, core.CheckpointShape{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Close the underlying file: the header is durable, but the next
	// append fails like a dying disk would.
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := churnyConfig(t, prog)
	cfg.Cells = core.CanonicalCells(cfg.Programs, []fault.Category{fault.CatAll})
	cfg.Checkpoint = writer
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()

	lease1, err := cl.Lease(ctx, "a")
	if err != nil || lease1.Status != StatusLease {
		t.Fatalf("lease = %+v, %v", lease1, err)
	}
	req := CompleteRequest{
		Worker: "a", Lease: lease1.Lease.ID,
		CellKey: lease1.Lease.CellKey,
		Result:  &core.CellRecord{Benign: 8, Attempts: 8},
	}
	resp, err := cl.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("completion accepted despite checkpoint write failure")
	}
	if c.CheckpointIntact() {
		t.Fatal("failed checkpoint writer still attached")
	}
	if got := cfg.Metrics.Retries.Value(); got != 1 {
		t.Errorf("retries = %d, want 1 (checkpoint failure requeues the cell)", got)
	}

	// The failed cell comes back (after backoff) and now resolves in
	// memory. The queue may hand out the study's other cell first;
	// complete those inline until the requeued one reappears.
	var lease2 *LeaseResponse
	for i := 0; i < 200; i++ {
		lease2, err = cl.Lease(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}
		if lease2.Status == StatusLease && lease2.Lease.Level == req.Level {
			break
		}
		if lease2.Status == StatusLease {
			other := CompleteRequest{
				Worker: "a", Lease: lease2.Lease.ID,
				CellKey: lease2.Lease.CellKey,
				Result:  &core.CellRecord{Benign: 8, Attempts: 8},
			}
			if oresp, oerr := cl.Complete(ctx, other); oerr != nil || !oresp.OK {
				t.Fatalf("other cell completion = %+v, %v", oresp, oerr)
			}
			continue
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lease2.Status != StatusLease || lease2.Lease.Level != req.Level {
		t.Fatalf("requeued cell never re-leased: %+v", lease2)
	}
	if lease2.Lease.Seed != lease1.Lease.Seed {
		t.Errorf("retry seed %d != original seed %d: retries must replay the identical stream",
			lease2.Lease.Seed, lease1.Lease.Seed)
	}
	req.Lease = lease2.Lease.ID
	resp, err = cl.Complete(ctx, req)
	if err != nil || !resp.OK {
		t.Fatalf("in-memory completion = %+v, %v", resp, err)
	}
	key := core.CellKey{Prog: prog.Name, Level: fault.LevelIR, Category: fault.CatAll}
	if res := c.State().Cells[key]; res == nil || res.Benign != 8 {
		t.Errorf("cell not resolved in memory after checkpoint detach: %+v", res)
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
}
