package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
// TTL and sweep so expiry/retry churn happens in milliseconds.
func churnyConfig(t *testing.T, prog *core.Program) Config {
	t.Helper()
	return Config{
		Programs:      []*core.Program{prog},
		N:             8,
		Seed:          1,
		Metrics:       NewMetrics(),
		LeaseTTL:      300 * time.Millisecond,
		SweepInterval: 20 * time.Millisecond,
		Backoff:       10 * time.Millisecond,
		BackoffCap:    50 * time.Millisecond,
		RetryAfter:    20 * time.Millisecond,
		Logf:          t.Logf,
	}
}

// renderAll renders the full report set for a study the way ficompare
// and fiserve do.
func renderAll(st *core.Study) string {
	var buf bytes.Buffer
	cli.RenderExperiment(&buf, st, "all")
	return buf.String()
}

// TestFleetLeaseRequeueDeterminism is the fleet leg of the differential
// matrix (internal/core TestStudyMatrix): three workers with snapshot
// replay and the compiled engines, one killed mid-cell (its lease
// expires and the cell is retried by a surviving worker), must
// reproduce the reference-policy single-process run — report bytes,
// cells, Dyn and sorted checkpoint body — with the merged state routed
// through the durable checkpoint's typed validation. The survivors
// must also have replayed: snapshot hits and converged attempts.
func TestFleetLeaseRequeueDeterminism(t *testing.T) {
	prog := testProgram(t)

	// Single-process goldens on the reference interpreters: the
	// sequential study and a parallel one must already agree; the fleet
	// must match both.
	goldenCkpt := filepath.Join(t.TempDir(), "golden.jsonl")
	goldenWriter, err := core.NewCheckpointWriterShape(goldenCkpt, core.CheckpointShape{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	goldenSt, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 8, Seed: 1,
		Checkpoint: goldenWriter})
	if err != nil {
		t.Fatal(err)
	}
	if err := goldenWriter.Close(); err != nil {
		t.Fatal(err)
	}
	golden := renderAll(goldenSt)
	parSt, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 8, Seed: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par := renderAll(parSt); par != golden {
		t.Fatalf("parallel single-process run differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", golden, par)
	}

	// Coordinator with a durable checkpoint: the render below must load
	// it back through the typed checkpoint validation.
	ckpt := filepath.Join(t.TempDir(), "fleet.jsonl")
	shape := core.CheckpointShape{N: 8, Seed: 1, Replay: ReplaySignature(), Compiled: "on"}
	writer, err := core.NewCheckpointWriterShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
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

	// Worker w3 dies mid-cell: it takes one lease, then vanishes without
	// heartbeating or completing. The coordinator must expire that lease
	// and a surviving worker must re-execute the cell.
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
	wg.Wait() // w3 is dead (holding one granted lease) before the survivors start

	// Each survivor's replay stats, as its last lease left them.
	var statsMu sync.Mutex
	replayStats := map[string]*telemetry.ReplayStats{}
	for _, name := range []string{"w1", "w2"} {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(context.Background(), WorkerConfig{
				Name: name, Client: client(int64(len(name))), Logf: t.Logf,
				BuildProgram: func(string) (*core.Program, error) { return prog, nil },
				testReplayHook: func(s *telemetry.ReplayStats) {
					statsMu.Lock()
					replayStats[name] = s
					statsMu.Unlock()
				},
			})
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}

	select {
	case <-c.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("fleet did not converge; status: %+v", c.Status())
	}
	wg.Wait()

	// The churn must have actually happened: at least one expiry and one
	// requeue, and no cell degraded (the retry succeeded).
	m := cfg.Metrics
	if m.Expiries.Value() < 1 {
		t.Errorf("lease expiries = %d, want >= 1 (w3's abandoned lease)", m.Expiries.Value())
	}
	if m.Retries.Value() < 1 {
		t.Errorf("retries = %d, want >= 1", m.Retries.Value())
	}
	if m.CellsDegraded.Value() != 0 {
		t.Errorf("cells degraded = %d, want 0", m.CellsDegraded.Value())
	}
	// The workers must have replayed: every survivor that ran a cell
	// fast-forwarded from snapshots, and some attempts converged.
	var converged uint64
	for name, s := range replayStats {
		if s.Hits() == 0 {
			t.Errorf("%s: no snapshot hits (%d misses); workers must arm replay", name, s.Misses())
		}
		converged += s.Converged()
	}
	if len(replayStats) == 0 || converged == 0 {
		t.Errorf("%d workers reported replay stats with %d converged attempts; want both > 0", len(replayStats), converged)
	}
	if !c.CheckpointIntact() {
		t.Fatal("checkpoint writer was detached")
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	// Merged state through the existing typed checkpoint validation: the
	// durable file and the in-memory state must agree exactly.
	loaded, err := core.LoadCheckpointShape(ckpt, shape)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Cells, c.State().Cells; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint cells differ from in-memory state:\nfile: %+v\nmem:  %+v", got, want)
	}
	if got, want := loaded.Skips, c.State().Skips; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint skips differ from in-memory state:\nfile: %+v\nmem:  %+v", got, want)
	}

	// Render from the loaded checkpoint: no campaign re-runs, and the
	// report is byte-identical to both single-process goldens.
	fleetSt, err := core.RunStudy(core.StudyConfig{
		Programs: []*core.Program{prog}, N: 8, Seed: 1, Resume: loaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(fleetSt); got != golden {
		t.Errorf("fleet report differs from single-process golden:\n--- golden ---\n%s\n--- fleet ---\n%s", golden, got)
	}
	// Every cell must have been restored, not re-run: the resumed study
	// and the coordinator agree cell by cell.
	for key, res := range goldenSt.Cells {
		if !reflect.DeepEqual(fleetSt.Cells[key], res) {
			t.Errorf("cell %v: fleet %+v, golden %+v", key, fleetSt.Cells[key], res)
		}
	}
	if !reflect.DeepEqual(fleetSt.Dyn, goldenSt.Dyn) {
		t.Errorf("fleet Dyn %v, golden %v", fleetSt.Dyn, goldenSt.Dyn)
	}
	if got, want := checkpointBody(t, ckpt), checkpointBody(t, goldenCkpt); got != want {
		t.Errorf("fleet checkpoint body differs from the golden:\n--- golden ---\n%s\n--- fleet ---\n%s", want, got)
	}
}

// checkpointBody returns a checkpoint's record lines without the header,
// sorted: the fleet appends records in completion order.
func checkpointBody(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")[1:]
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestFleetDuplicateCompletion: two workers complete the same cell (one
// from an expired lease); the second completion is deduped, the first
// wins, and the cell's stored result is untouched. A completion whose
// record no campaign can produce is refused before either, leaving the
// cell unresolved.
func TestFleetDuplicateCompletion(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	cfg.Categories = []fault.Category{fault.CatAll}
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
	cfg.Categories = []fault.Category{fault.CatAll} // 2 cells: IR + ASM
	cfg.LeaseTTL = 40 * time.Millisecond
	cfg.SweepInterval = 10 * time.Millisecond
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
		Categories: cfg.Categories, Resume: state})
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
	cfg.Categories = []fault.Category{fault.CatAll}
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
