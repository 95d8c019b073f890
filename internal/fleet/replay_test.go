package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/telemetry"
)

// TestWorkerSnapshotWorkingSet drains a two-program study through one
// worker and checks its snapshot cache against the worker budget: after
// every lease the accounted bytes fit workerSnapshotBudget, and moving
// on to the next (program, level) evicted the previous entry rather
// than growing the cache. The worker must also have replayed: it took
// snapshot hits and some attempts converged.
func TestWorkerSnapshotWorkingSet(t *testing.T) {
	progs := []*core.Program{testProgram(t)}
	second, err := bench.Build("mcfm")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, second)
	byName := map[string]*core.Program{}
	for _, p := range progs {
		byName[p.Name] = p
	}

	cfg := churnyConfig(t, progs[0])
	cfg.Programs, cfg.N = progs, 4
	cfg.LeaseTTL = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The hooks run on the worker loop, which is this goroutine.
	leased := map[string]bool{} // "benchmark/level"
	var cacheBytes []uint64
	var stats *telemetry.ReplayStats
	err = RunWorker(context.Background(), WorkerConfig{
		Name: "w1", Client: &Client{Base: srv.URL, JitterSeed: 1, Logf: t.Logf},
		BuildProgram: func(name string) (*core.Program, error) { return byName[name], nil },
		testAcquireHook: func(l *Lease) bool {
			leased[l.Prog+"/"+l.Level.String()] = true
			return true
		},
		testReplayHook: func(s *telemetry.ReplayStats) {
			stats = s
			cacheBytes = append(cacheBytes, s.CacheBytes())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatalf("worker exited with the study unresolved; status: %+v", c.Status())
	}

	if len(leased) != 4 {
		t.Fatalf("worker leased cells of %v, want both levels of both programs", leased)
	}
	if stats == nil || stats.Hits() == 0 || stats.Converged() == 0 {
		t.Fatal("worker took no snapshot hits or converged no attempt; workers must arm replay")
	}
	for i, b := range cacheBytes {
		if b == 0 || b > workerSnapshotBudget {
			t.Errorf("after lease %d the snapshot cache accounts %d bytes, want (0, %d]", i+1, b, workerSnapshotBudget)
		}
	}
	if stats.Evictions() == 0 {
		t.Errorf("no evictions over %d (program, level) working sets; the cache should hold about one", len(leased))
	}
	t.Logf("%d leases, cache bytes %v, %d evictions, %d hits, %d converged",
		len(cacheBytes), cacheBytes, stats.Evictions(), stats.Hits(), stats.Converged())
}
