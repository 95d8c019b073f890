package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
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
// alone — in the ReplayStats and in a registry bound to them.
func TestSnapshotCacheGaugePostEviction(t *testing.T) {
	p := buildSome(t, "quantumm")[0]
	runCell := func(level fault.Level, rc *core.ReplayConfig) {
		c := &core.Campaign{
			Prog: p, Level: level, Category: fault.CatAll,
			N: 5, Seed: 9, Replay: rc,
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	footprint := func(level fault.Level) uint64 {
		stats := &telemetry.ReplayStats{}
		runCell(level, &core.ReplayConfig{MemBudget: 1, Stats: stats})
		return stats.CacheBytes()
	}
	asmOnly := footprint(fault.LevelASM)

	stats := &telemetry.ReplayStats{}
	shared := &core.ReplayConfig{MemBudget: 1, Stats: stats}
	om := obs.New()
	core.BindMetrics(om, telemetry.NewAggregator(), shared, nil)
	runCell(fault.LevelIR, shared)
	irBytes := stats.CacheBytes()
	runCell(fault.LevelASM, shared)

	if stats.Evictions() == 0 {
		t.Fatal("over-budget cache never evicted")
	}
	if got := stats.CacheBytes(); got != asmOnly {
		t.Errorf("post-eviction gauge = %d bytes, want the surviving entry's %d (pre-eviction footprint was %d+%d)",
			got, asmOnly, irBytes, asmOnly)
	}
	scrape(t, om)
	if got := uint64(om.SnapshotCacheBytes.Value()); got != asmOnly {
		t.Errorf("obs cache-bytes gauge = %d, want %d", got, asmOnly)
	}
	if om.SnapshotEvictions.Value() != stats.Evictions() {
		t.Errorf("obs evictions = %d, stats evictions = %d", om.SnapshotEvictions.Value(), stats.Evictions())
	}
}

// TestSharedCachesReportToEachStudy: studies sharing one ReplayConfig
// and CompiledConfig each bind their own registry, and every scrape
// reads the whole shared cache, whether the study built snapshots or
// was served only by cache hits.
func TestSharedCachesReportToEachStudy(t *testing.T) {
	progs := buildSome(t, "quantumm", "mcfm")
	stats := &telemetry.ReplayStats{}
	replay, compiled := &core.ReplayConfig{Stats: stats}, &core.CompiledConfig{}
	study := func(p *core.Program) uint64 {
		t.Helper()
		om, agg := obs.New(), telemetry.NewAggregator()
		core.BindMetrics(om, agg, replay, compiled)
		_, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{p}, N: 4, Seed: 1,
			Cells:  core.CanonicalCells([]*core.Program{p}, []fault.Category{fault.CatAll}),
			Replay: replay, Compiled: compiled, Obs: om, Events: agg})
		if err != nil {
			t.Fatal(err)
		}
		scrape(t, om)
		return uint64(om.SnapshotCacheBytes.Value())
	}
	after1 := study(progs[0])
	if after1 == 0 || after1 != stats.CacheBytes() {
		t.Fatalf("first study's cache-bytes gauge = %d, replay stats %d", after1, stats.CacheBytes())
	}
	if got := study(progs[1]); got != stats.CacheBytes() || got <= after1 {
		t.Errorf("second study's cache-bytes gauge = %d, want the whole cache's %d bytes", got, stats.CacheBytes())
	}
	// A study served only by cache hits still sees the cache.
	if got := study(progs[0]); got != stats.CacheBytes() {
		t.Errorf("all-hit study's cache-bytes gauge = %d, want %d", got, stats.CacheBytes())
	}
}

// TestShardInfoReadFromStream: a shard worker's registry names its
// shard, read from the study_start event the aggregator recorded.
func TestShardInfoReadFromStream(t *testing.T) {
	progs := buildSome(t, "quantumm")
	om, agg := obs.New(), telemetry.NewAggregator()
	core.BindMetrics(om, agg, nil, nil)
	_, err := core.RunStudy(core.StudyConfig{Programs: progs, N: 4, Seed: 1,
		Cells: core.CanonicalCells(progs, []fault.Category{fault.CatAll}),
		Shard: &core.ShardSpec{Index: 1, Count: 2}, Obs: om, Events: agg})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := om.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`hlfi_shard_info{shard="1/2"} 1`, "hlfi_cells_planned 1", "hlfi_cells_done_total 1"} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("shard worker's /metrics lacks %q:\n%s", want, sb.String())
		}
	}
}

// scrape renders om once, so its read-at-scrape series hold their
// owners' current values.
func scrape(t *testing.T, om *obs.Metrics) {
	t.Helper()
	if err := om.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
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
