package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/obs"
	"hlfi/internal/telemetry"
)

// TestTracingAddsOnlyTraceEvents checks the event-stream contract of
// -trace-attempts: the sequence of non-trace events is unchanged, and
// every attempt_trace event is well-formed — it starts at the injection
// site, ends on an outcome edge, and names an outcome consistent with
// the cell's accounting.
func TestTracingAddsOnlyTraceEvents(t *testing.T) {
	progs := buildSome(t, "quantumm")
	run := func(trace int) *captureRecorder {
		cap := &captureRecorder{}
		_, err := core.RunStudy(core.StudyConfig{
			Programs: progs, N: 8, Seed: 7, Events: cap,
			Cells:         core.CanonicalCells(progs, []fault.Category{fault.CatAll}),
			TraceAttempts: trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cap
	}

	plain, traced := run(0), run(5)
	if got, want := types(traced.events, false), types(plain.events, true); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("non-trace event sequence changed:\n  without tracing: %v\n  with tracing:    %v", want, got)
	}

	var seen int
	for _, e := range traced.events {
		if e.Type != telemetry.EventAttemptTrace {
			continue
		}
		seen++
		if len(e.Spans) == 0 {
			t.Fatalf("attempt_trace %d has no spans", e.Attempt)
		}
		if e.Spans[0].Kind != "inject" {
			t.Errorf("trace %d starts with %q, want inject", e.Attempt, e.Spans[0].Kind)
		}
		last := e.Spans[len(e.Spans)-1]
		if last.Kind != "outcome" || last.Site != e.Outcome {
			t.Errorf("trace %d ends with %q/%q, want outcome/%q", e.Attempt, last.Kind, last.Site, e.Outcome)
		}
	}
	if seen == 0 {
		t.Fatal("tracing armed but no attempt_trace events recorded")
	}
	if plainTraces := types(plain.events, false); len(plainTraces) != len(types(plain.events, true)) {
		t.Error("attempt_trace events recorded with tracing disabled")
	}
}

// TestStudyAbortFlushesEventStream is the regression test for the
// abort-path durability fix: an aborting study must flush its telemetry
// sinks immediately before emitting study_abort (so the buffered tail of
// the stream survives a process that exits right after) and once more
// after it (so the abort marker itself does).
func TestStudyAbortFlushesEventStream(t *testing.T) {
	p, err := core.BuildProgram("tiny.c", `
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += i * i;
    print_int(s);
    print_str("\n");
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	log := &flushLog{}
	_, err = core.RunStudyContext(ctx, core.StudyConfig{
		Programs: []*core.Program{p},
		N:        5,
		Seed:     2,
		Cells:    core.CanonicalCells([]*core.Program{p}, []fault.Category{fault.CatAll}),
		Events:   log,
	})
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("cancelled study returned %v, want ErrAborted", err)
	}
	abortAt := -1
	for i, op := range log.ops {
		if op == "record:"+telemetry.EventStudyAbort {
			abortAt = i
		}
	}
	if abortAt < 0 {
		t.Fatal("no study_abort recorded")
	}
	if abortAt == 0 || log.ops[abortAt-1] != "flush" {
		t.Errorf("no flush immediately before study_abort; ops = %v", log.ops)
	}
	if abortAt == len(log.ops)-1 || log.ops[abortAt+1] != "flush" {
		t.Errorf("no flush after study_abort; ops = %v", log.ops)
	}
}

// TestSnapshotCacheGaugePostEviction drives a shared snapshot cache over
// budget across two (program, level) entries and checks the usage gauges
// publish the post-eviction footprint — the surviving entry's bytes
// alone, in both the ReplayStats gauge and the live metrics registry.
func TestSnapshotCacheGaugePostEviction(t *testing.T) {
	p := buildSome(t, "quantumm")[0]
	runCell := func(level fault.Level, rc *core.ReplayConfig, om *obs.Metrics) {
		c := &core.Campaign{
			Prog: p, Level: level, Category: fault.CatAll,
			N: 5, Seed: 9, Replay: rc, Obs: om,
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	footprint := func(level fault.Level) uint64 {
		stats := &telemetry.ReplayStats{}
		runCell(level, &core.ReplayConfig{MemBudget: 1, Stats: stats}, nil)
		return stats.CacheBytes()
	}
	asmOnly := footprint(fault.LevelASM)

	stats := &telemetry.ReplayStats{}
	om := obs.New()
	shared := &core.ReplayConfig{MemBudget: 1, Stats: stats}
	runCell(fault.LevelIR, shared, om)
	irBytes := stats.CacheBytes()
	runCell(fault.LevelASM, shared, om)

	if stats.Evictions() == 0 {
		t.Fatal("over-budget cache never evicted")
	}
	if got := stats.CacheBytes(); got != asmOnly {
		t.Errorf("post-eviction gauge = %d bytes, want the surviving entry's %d (pre-eviction footprint was %d+%d)",
			got, asmOnly, irBytes, asmOnly)
	}
	if got := uint64(om.SnapshotCacheBytes.Value()); got != asmOnly {
		t.Errorf("obs cache-bytes gauge = %d, want %d", got, asmOnly)
	}
	if om.SnapshotEvictions.Value() != stats.Evictions() {
		t.Errorf("obs evictions = %d, stats evictions = %d", om.SnapshotEvictions.Value(), stats.Evictions())
	}
}

// TestSharedCachesReportToEachStudy: studies sharing one ReplayConfig
// and CompiledConfig publish the snapshot-cache gauges to their own
// registries, whether they build snapshots or only hit the cache. The cache is created by the first arming campaign, so the
// registry must travel with each arm, not with the config.
func TestSharedCachesReportToEachStudy(t *testing.T) {
	progs := buildSome(t, "quantumm", "mcfm")
	stats := &telemetry.ReplayStats{}
	replay, compiled := &core.ReplayConfig{Stats: stats}, &core.CompiledConfig{}
	study := func(p *core.Program, om *obs.Metrics) uint64 {
		t.Helper()
		_, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{p}, N: 4, Seed: 1,
			Cells:  core.CanonicalCells([]*core.Program{p}, []fault.Category{fault.CatAll}),
			Replay: replay, Compiled: compiled, Obs: om})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(om.SnapshotCacheBytes.Value())
	}
	first, second := obs.New(), obs.New()
	after1 := study(progs[0], first)
	if after1 == 0 || after1 != stats.CacheBytes() {
		t.Fatalf("first study's cache-bytes gauge = %d, replay stats %d", after1, stats.CacheBytes())
	}
	if got := study(progs[1], second); got != stats.CacheBytes() || got <= after1 {
		t.Errorf("second study's cache-bytes gauge = %d, want the whole cache's %d bytes", got, stats.CacheBytes())
	}
	if got := uint64(first.SnapshotCacheBytes.Value()); got != after1 {
		t.Errorf("first study's gauge moved from %d to %d after it finished", after1, got)
	}
	// A study served only by cache hits still sees the cache.
	if got := study(progs[0], obs.New()); got != stats.CacheBytes() {
		t.Errorf("all-hit study's cache-bytes gauge = %d, want %d", got, stats.CacheBytes())
	}
}

func buildSome(t *testing.T, names ...string) []*core.Program {
	t.Helper()
	var progs []*core.Program
	for _, name := range names {
		p, err := bench.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// types lists the event-type sequence; withTraces=false drops
// attempt_trace events first.
func types(events []telemetry.Event, withTraces bool) []string {
	var out []string
	for _, e := range events {
		if !withTraces && e.Type == telemetry.EventAttemptTrace {
			continue
		}
		out = append(out, e.Type)
	}
	return out
}

// flushLog records the interleaving of Record and Flush calls.
type flushLog struct {
	mu  sync.Mutex
	ops []string
}

func (l *flushLog) Record(e telemetry.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, "record:"+e.Type)
}

func (l *flushLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, "flush")
	return nil
}
