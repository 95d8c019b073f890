package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/core"
	"hlfi/internal/obs"
	"hlfi/internal/obs/trace"
)

// TestFleetTracingDeterminism is the differential oracle for fleet-wide
// tracing: a three-worker fleet with one worker killed mid-cell runs
// with the flight recorder armed, and the rendered report must still be
// byte-identical to the untraced single-process golden. Along the way
// the merged timeline must actually tell the churn story: a campaign
// root, a retry span for the abandoned lease, and every exec span
// attributed to a surviving named worker.
func TestFleetTracingDeterminism(t *testing.T) {
	prog := testProgram(t)

	goldenSt, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := renderAll(goldenSt)

	flight := filepath.Join(t.TempDir(), "flight.jsonl")
	tracer, err := trace.New(trace.Options{
		File: flight,
		Head: trace.Header{Go: "test", Engine: "on", Adaptive: "off", N: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
	cfg.Trace = tracer
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

	// w3 takes one lease and vanishes: its lease span must close with
	// the expiry, and the cell must come back as a retry span.
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
		t.Fatalf("fleet did not converge; status: %+v", c.Status())
	}
	wg.Wait()

	// Byte-identity first: tracing must never touch the results.
	fleetSt, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(fleetSt); got != golden {
		t.Errorf("traced fleet report differs from untraced golden:\n--- golden ---\n%s\n--- traced ---\n%s", golden, got)
	}
	for key, res := range goldenSt.Cells {
		if !reflect.DeepEqual(fleetSt.Cells[key], res) {
			t.Errorf("cell %v: traced fleet %+v, golden %+v", key, fleetSt.Cells[key], res)
		}
	}

	// The merged timeline must tell the story of the run.
	spans := tracer.Snapshot()
	byKind := map[string][]trace.Record{}
	byID := map[uint64]trace.Record{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
		byID[s.ID] = s
		if s.End == 0 {
			t.Errorf("unfinished span in final timeline: %+v", s)
		}
		if s.Trace != tracer.TraceID() {
			t.Errorf("span %d carries trace %d, want the campaign trace %d", s.ID, s.Trace, tracer.TraceID())
		}
	}
	if n := len(byKind[trace.KindCampaign]); n != 1 {
		t.Fatalf("campaign root spans = %d, want 1", n)
	}
	if root := byKind[trace.KindCampaign][0]; root.Outcome != "done" {
		t.Errorf("campaign root outcome = %q, want done", root.Outcome)
	}
	cells := len(goldenSt.Cells)
	if n := len(byKind[trace.KindCell]); n != cells {
		t.Errorf("cell spans = %d, want %d", n, cells)
	}
	if len(byKind[trace.KindRetry]) < 1 {
		t.Errorf("no retry span recorded for w3's abandoned lease; kinds: %v", kindCounts(spans))
	}
	execs := byKind[trace.KindExec]
	if len(execs) != cells {
		t.Errorf("exec spans = %d, want one per cell (%d)", len(execs), cells)
	}
	for _, e := range execs {
		if e.Worker != "w1" && e.Worker != "w2" {
			t.Errorf("exec span attributed to %q, want a surviving worker: %+v", e.Worker, e)
		}
		// Remote context propagation: each exec span must parent under
		// the coordinator-side lease span of the same worker.
		parent, ok := byID[e.Parent]
		if !ok || parent.Kind != trace.KindLease {
			t.Errorf("exec span %d parent %d is %+v, want the granting lease span", e.ID, e.Parent, parent)
			continue
		}
		if parent.Worker != e.Worker {
			t.Errorf("exec span worker %q != lease span worker %q", e.Worker, parent.Worker)
		}
	}

	// The durable flight recorder must hold the same timeline: a header
	// line plus one JSONL record per span.
	if !tracer.FileIntact() {
		t.Fatal("flight-recorder file was detached")
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	head, recs, err := trace.ReadFlightRecorder(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(spans) {
		t.Errorf("flight recorder holds %d spans, want %d", len(recs), len(spans))
	}
	if head.N != 8 {
		t.Errorf("flight-recorder header = %+v, want n=8", head)
	}
}

func kindCounts(spans []trace.Record) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Kind]++
	}
	return out
}

// TestFleetWorkerFederation drives the heartbeat piggyback path by hand:
// a heartbeat carrying a span batch and a cumulative metrics snapshot
// must land the spans in the coordinator's timeline verbatim and publish
// per-worker series on /metrics — without disturbing the unlabeled
// aggregate counters the existing dashboards scrape.
func TestFleetWorkerFederation(t *testing.T) {
	prog := testProgram(t)
	tracer, err := trace.New(trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := churnyConfig(t, prog)
	cfg.Trace = tracer
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := c.Handler()
	mux.Handle("/", obs.MuxTrace(cfg.Metrics.Registry(), c.Status, tracer))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()

	lease, err := cl.Lease(ctx, "hb")
	if err != nil || lease.Status != StatusLease {
		t.Fatalf("lease = %+v, %v", lease, err)
	}
	if lease.Lease.Trace != tracer.TraceID() || lease.Lease.Span == 0 {
		t.Fatalf("lease grant carries trace=%d span=%d, want propagated context", lease.Lease.Trace, lease.Lease.Span)
	}

	workerSpan := trace.Record{
		Trace: lease.Lease.Trace, ID: 1<<63 | 7, Parent: lease.Lease.Span,
		Kind: trace.KindExec, Name: "quantumm/LLFI/all", Worker: "hb",
		Start: 100, End: 200, Outcome: "done",
	}
	ok, err := cl.Heartbeat(ctx, HeartbeatRequest{
		Worker: "hb", Lease: lease.Lease.ID,
		Spans:   []trace.Record{workerSpan},
		Metrics: &WorkerSnapshot{Cells: 3, Attempts: 41, Activated: 24, SimFaults: 1, Builds: 2},
	})
	if err != nil || !ok {
		t.Fatalf("heartbeat = %v, %v", ok, err)
	}

	found := false
	for _, s := range tracer.Snapshot() {
		if s == workerSpan {
			found = true
		}
	}
	if !found {
		t.Errorf("heartbeat-carried span not ingested verbatim; timeline: %+v", tracer.Snapshot())
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`hlfi_fleet_worker_cells_total{worker="hb"} 3`,
		`hlfi_fleet_worker_attempts_total{worker="hb"} 41`,
		`hlfi_fleet_worker_activated_total{worker="hb"} 24`,
		`hlfi_fleet_worker_sim_faults_total{worker="hb"} 1`,
		`hlfi_fleet_worker_builds_total{worker="hb"} 2`,
		`hlfi_fleet_leases_total{worker="hb"} 1`,
		`hlfi_fleet_heartbeats_total{worker="hb"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics missing per-worker series %q", want)
		}
	}
	// The unlabeled aggregates the existing dashboards scrape stay put.
	for _, want := range []string{"hlfi_fleet_leases_total 1\n", "hlfi_fleet_heartbeats_total 1\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing aggregate series %q", strings.TrimSpace(want))
		}
	}

	// A snapshot is an absolute restatement, not a delta: re-applying a
	// newer one replaces the old values.
	ok, err = cl.Heartbeat(ctx, HeartbeatRequest{
		Worker: "hb", Lease: lease.Lease.ID,
		Metrics: &WorkerSnapshot{Cells: 5, Attempts: 70, Activated: 40, SimFaults: 1, Builds: 2},
	})
	if err != nil || !ok {
		t.Fatalf("second heartbeat = %v, %v", ok, err)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `hlfi_fleet_worker_cells_total{worker="hb"} 5`+"\n") {
		t.Error("snapshot re-apply did not store the absolute value")
	}
}

// TestFleetScrapeDuringDrain: a draining coordinator keeps /statusz and
// /metrics serving clean 200s the whole way down, and once the fleet
// resolves, consecutive scrapes agree on one final snapshot.
func TestFleetScrapeDuringDrain(t *testing.T) {
	prog := testProgram(t)
	cfg := churnyConfig(t, prog)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	mux := c.Handler()
	mux.Handle("/", obs.MuxTrace(cfg.Metrics.Registry(), c.Status, nil))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &Client{Base: srv.URL, Logf: t.Logf}
	ctx := context.Background()

	scrape := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s, want 200", path, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		return string(body)
	}

	// Take one lease so the drain happens with work in flight, then
	// drain and hammer both endpoints while the cell completes.
	lease, err := cl.Lease(ctx, "w")
	if err != nil || lease.Status != StatusLease {
		t.Fatalf("lease = %+v, %v", lease, err)
	}
	if dr, err := cl.Drain(ctx); err != nil || !dr.OK {
		t.Fatalf("drain = %+v, %v", dr, err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var status map[string]any
			if err := json.Unmarshal([]byte(scrape("/statusz")), &status); err != nil {
				t.Errorf("/statusz under drain is not JSON: %v", err)
				return
			}
			scrape("/metrics")
		}
	}()

	req := CompleteRequest{
		Worker: "w", Lease: lease.Lease.ID,
		CellKey: lease.Lease.CellKey,
		Result:  &core.CellRecord{Benign: 8, Attempts: 8},
	}
	if resp, err := cl.Complete(ctx, req); err != nil || !resp.OK {
		t.Fatalf("completion under drain = %+v, %v", resp, err)
	}
	// A drained coordinator answers pollers with done, not an error.
	if resp, err := cl.Lease(ctx, "w"); err != nil || resp.Status != StatusDone {
		t.Fatalf("lease under drain = %+v, %v (want %q)", resp, err, StatusDone)
	}
	close(stop)
	wg.Wait()
	// The drained study ends once its one leased job is resolved.
	<-c.Done()

	// The final snapshot is settled: two scrapes in a row agree on both
	// endpoints — byte for byte on /metrics, and on /statusz once the
	// one deliberately clock-relative field (worker lastSeenSecAgo) is
	// factored out.
	if a, b := scrubClock(t, scrape("/statusz")), scrubClock(t, scrape("/statusz")); a != b {
		t.Errorf("final /statusz snapshot unstable:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a, b := scrape("/metrics"), scrape("/metrics"); a != b {
		t.Errorf("final /metrics snapshot unstable:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// scrubClock normalizes a /statusz payload by deleting every
// lastSeenSecAgo field — the one value that tracks the wall clock.
func scrubClock(t *testing.T, payload string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(payload), &v); err != nil {
		t.Fatalf("/statusz is not JSON: %v", err)
	}
	var scrub func(any)
	scrub = func(node any) {
		switch n := node.(type) {
		case map[string]any:
			delete(n, "lastSeenSecAgo")
			for _, c := range n {
				scrub(c)
			}
		case []any:
			for _, c := range n {
				scrub(c)
			}
		}
	}
	scrub(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
