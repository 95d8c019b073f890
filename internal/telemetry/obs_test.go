package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hlfi/internal/obs"
)

// syncTracker is an io.Writer with an fsync-like Sync method that
// records the interleaving of writes and syncs.
type syncTracker struct {
	bytes.Buffer
	log []string
}

func (w *syncTracker) Write(p []byte) (int, error) {
	w.log = append(w.log, "write")
	return w.Buffer.Write(p)
}

func (w *syncTracker) Sync() error {
	w.log = append(w.log, "sync")
	return nil
}

// TestJSONLSinkFlushSyncs is the satellite-1 regression test: a sink
// over a sync-capable writer (an *os.File in production) must fsync on
// Flush, so the study's abort path can force the event tail to disk
// before the process exits.
func TestJSONLSinkFlushSyncs(t *testing.T) {
	w := &syncTracker{}
	s := NewJSONLSink(w)
	s.Record(Event{Type: EventStudyStart})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Record(Event{Type: EventStudyAbort})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"write", "sync", "write", "sync"}
	if len(w.log) != len(want) {
		t.Fatalf("log = %v, want %v", w.log, want)
	}
	for i := range want {
		if w.log[i] != want[i] {
			t.Fatalf("log = %v, want %v", w.log, want)
		}
	}
}

// TestJSONLSinkFlushBuffered covers the buffered-writer branch: Flush
// must drain a bufio.Writer so no event is stranded in process memory.
func TestJSONLSinkFlushBuffered(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	s := NewJSONLSink(bw)
	s.Record(Event{Type: EventStudyAbort, Err: "ctx cancelled"})
	if buf.Len() != 0 {
		t.Fatal("event reached the underlying writer before Flush (buffer too small for the test)")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "study_abort") {
		t.Errorf("flushed stream missing abort event: %q", buf.String())
	}
}

// TestFlushPlainWriterIsNoOp: writers with neither Sync nor Flush (an
// unbuffered pipe, a bytes.Buffer) need nothing and must not error.
func TestFlushPlainWriterIsNoOp(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Record(Event{Type: EventStudyDone})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := Flush(s); err != nil {
		t.Fatal(err)
	}
	// A recorder with no Flush at all is fine too.
	if err := Flush(NewAggregator()); err != nil {
		t.Fatal(err)
	}
	if err := Flush(nil); err != nil {
		t.Fatal(err)
	}
}

// TestMultiFlushFansOut: Multi must flush every flush-capable recorder
// behind it, skipping the rest.
func TestMultiFlushFansOut(t *testing.T) {
	w1, w2 := &syncTracker{}, &syncTracker{}
	m := Multi(NewAggregator(), NewJSONLSink(w1), NewJSONLSink(w2))
	m.Record(Event{Type: EventStudyAbort})
	if err := Flush(m); err != nil {
		t.Fatal(err)
	}
	for i, w := range []*syncTracker{w1, w2} {
		if len(w.log) == 0 || w.log[len(w.log)-1] != "sync" {
			t.Errorf("sink %d not synced: log %v", i, w.log)
		}
	}
}

// TestReplayStatsPostEvictionGauge is the satellite-2 regression: the
// cache-usage gauge is last-write-wins, so after an eviction pass the
// stats must report the post-eviction footprint, never a stale
// pre-eviction value, and eviction counts must accumulate.
func TestReplayStatsPostEvictionGauge(t *testing.T) {
	s := &ReplayStats{}
	// Two entries admitted.
	s.SetCacheUsage(1000, 40)
	if s.CacheBytes() != 1000 || s.CacheEntries() != 40 {
		t.Fatalf("gauge = (%d, %d), want (1000, 40)", s.CacheBytes(), s.CacheEntries())
	}
	// An eviction pass drops one entry; the publish that follows must
	// fully replace the gauge.
	s.NoteEviction()
	s.SetCacheUsage(400, 15)
	if s.CacheBytes() != 400 {
		t.Errorf("post-eviction bytes = %d, want 400", s.CacheBytes())
	}
	if s.CacheEntries() != 15 {
		t.Errorf("post-eviction entries = %d, want 15", s.CacheEntries())
	}
	if s.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions())
	}
	// Thinning publishes a shrunken footprint for the same entry count
	// of entries — still last-write-wins.
	s.SetCacheUsage(200, 8)
	if s.CacheBytes() != 200 || s.CacheEntries() != 8 {
		t.Errorf("post-thinning gauge = (%d, %d), want (200, 8)", s.CacheBytes(), s.CacheEntries())
	}
	// Nil receiver: every mutator is a no-op.
	var nilStats *ReplayStats
	nilStats.SetCacheUsage(1, 1)
	nilStats.NoteEviction()
	nilStats.Hit(1, 1)
	nilStats.Miss(1)
	nilStats.NoteCompiled(EndConverged)
}

// TestAggregatorZeroAttemptStudy is the satellite-3 coverage: a study
// that starts and finishes with no completed cells (every cell skipped)
// must render and summarize without dividing by zero.
// TestReplayStatsRestoreDistribution: every Hit and Miss lands in one
// restore-distance bucket (the first bound at or above what the attempt
// replayed, else +Inf), so the distribution counts hits plus misses and
// sums to the replayed-instruction total.
func TestReplayStatsRestoreDistribution(t *testing.T) {
	s := &ReplayStats{}
	s.Hit(7, 1000)            // on the first bound
	s.Hit(7, 1001)            // just above it
	s.Miss(1 << 40)           // past the last bound
	s.NoteCompiled(EndRanOut) // compiled attempts are counted apart
	s.NoteCompiled(EndConverged)
	s.NoteCompiled(EndCycled)
	counts := s.RestoreCounts()
	if len(counts) != len(obs.RestoreInstrsBuckets)+1 {
		t.Fatalf("%d buckets, want %d", len(counts), len(obs.RestoreInstrsBuckets)+1)
	}
	if counts[0] != 1 || counts[1] != 1 || counts[len(counts)-1] != 1 {
		t.Errorf("restore buckets %v, want one each in the first, second and +Inf", counts)
	}
	if s.ReplayedInstrs() != 1000+1001+1<<40 || s.CompiledAttempts() != 3 || s.Converged() != 1 || s.Cycled() != 1 {
		t.Errorf("replayed %d, compiled %d, converged %d, cycled %d", s.ReplayedInstrs(), s.CompiledAttempts(), s.Converged(), s.Cycled())
	}
}

// TestAggregatorPlan: the recorded adaptive_plan is readable, and a
// study without one reads the zero event.
func TestAggregatorPlan(t *testing.T) {
	a := NewAggregator()
	if a.Plan().Type != "" {
		t.Errorf("plan before adaptive_plan = %+v", a.Plan())
	}
	a.Record(Event{Type: EventAdaptivePlan, AdaptiveSaved: 5, AdaptiveExtendedCells: 2})
	if p := a.Plan(); p.AdaptiveSaved != 5 || p.AdaptiveExtendedCells != 2 {
		t.Errorf("plan = %+v", p)
	}
}

func TestAggregatorZeroAttemptStudy(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Type: EventStudyStart, N: 100, Seed: 7, Cells: 2, Parallel: 1})
	a.Record(Event{Type: EventCellSkip, Benchmark: "bzip2m", Level: "LLFI", Category: "cast", Err: "no candidates"})
	a.Record(Event{Type: EventCellSkip, Benchmark: "mcfm", Level: "PINFI", Category: "cast", Err: "no candidates"})
	a.Record(Event{Type: EventStudyDone, Cells: 0, DurationMS: 12})

	if st := a.Status(); st.Attempts != 0 || st.Activated != 0 {
		t.Errorf("totals = (%d, %d), want (0, 0)", st.Attempts, st.Activated)
	}
	if tp := a.Status().ThroughputPerSec; tp != 0 {
		t.Errorf("throughput = %v, want 0 with zero attempts", tp)
	}
	if slow := a.SlowestCells(5); len(slow) != 0 {
		t.Errorf("slowest cells = %v, want empty", slow)
	}
	out := a.RenderTelemetry()
	if !strings.Contains(out, "0 cells, 2 skipped") {
		t.Errorf("render missing skip accounting:\n%s", out)
	}
	if !strings.Contains(out, "injections attempted  : 0 (0 activated, 0.0%)") {
		t.Errorf("render missing zero-attempt line:\n%s", out)
	}
	st := a.Status()
	if st.CellsDone != 0 || st.CellsSkipped != 2 || !st.Done {
		t.Errorf("status = %+v", st)
	}
	if len(st.Skips) != 2 || st.Skips[0].Err != "no candidates" {
		t.Errorf("status skips = %+v", st.Skips)
	}
}

// TestAggregatorSingleCellStudy: with exactly one completed cell the
// slowest-cells list and the throughput summary must both reflect it.
func TestAggregatorSingleCellStudy(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Type: EventStudyStart, N: 50, Cells: 1, Parallel: 1})
	a.Record(Event{Type: EventCellDone, Benchmark: "mcfm", Level: "LLFI", Category: "all",
		DurationMS: 250, ScanMS: 40, Attempts: 80, Activated: 50,
		Benign: 20, SDC: 10, Crash: 15, Hang: 5, NotActivated: 30})
	a.Record(Event{Type: EventStudyDone, Cells: 1, DurationMS: 500})

	if st := a.Status(); st.Attempts != 80 || st.Activated != 50 {
		t.Errorf("totals = (%d, %d), want (80, 50)", st.Attempts, st.Activated)
	}
	if tp := a.Status().ThroughputPerSec; tp != 160 { // 80 attempts / 0.5 s
		t.Errorf("throughput = %v, want 160", tp)
	}
	slow := a.SlowestCells(5)
	if len(slow) != 1 || slow[0].Benchmark != "mcfm" {
		t.Fatalf("slowest cells = %+v, want the single cell", slow)
	}
	out := a.RenderTelemetry()
	if !strings.Contains(out, "aggregate throughput  : 160 injections/sec") {
		t.Errorf("render missing throughput:\n%s", out)
	}
	if !strings.Contains(out, "mcfm") {
		t.Errorf("render missing the slowest cell:\n%s", out)
	}
}

// TestStatusWilsonIntervals checks the /statusz payload: rates carry
// Wilson intervals that bracket the point estimate, and resumed cells
// are marked.
func TestStatusWilsonIntervals(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Type: EventStudyStart, N: 100, Seed: 3, Cells: 2})
	a.Record(Event{Type: EventCellDone, Benchmark: "bzip2m", Level: "LLFI", Category: "all",
		Attempts: 150, Benign: 40, SDC: 30, Crash: 25, Hang: 5, NotActivated: 50})
	a.Record(Event{Type: EventCellResume, Benchmark: "bzip2m", Level: "PINFI", Category: "all",
		Attempts: 120, Benign: 60, SDC: 20, Crash: 20, Hang: 0, NotActivated: 20})

	st := a.Status()
	if st.CellsPlanned != 2 || st.CellsDone != 1 || st.CellsResumed != 1 {
		t.Fatalf("status counts: %+v", st)
	}
	if len(st.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (done + resumed)", len(st.Cells))
	}
	done, resumed := st.Cells[0], st.Cells[1]
	if resumed.Level != "PINFI" || !resumed.Resumed {
		t.Errorf("resumed cell not marked: %+v", resumed)
	}
	if done.Activated != 100 {
		t.Errorf("activated = %d, want 100", done.Activated)
	}
	ci := done.Crash
	if ci == nil || ci.Count != 25 || ci.Rate != 0.25 {
		t.Fatalf("crash rate = %+v", ci)
	}
	if !(ci.WilsonLo < ci.Rate && ci.Rate < ci.WilsonHi) {
		t.Errorf("Wilson interval [%v, %v] does not bracket %v", ci.WilsonLo, ci.WilsonHi, ci.Rate)
	}
	if ci.WilsonLo < 0 || ci.WilsonHi > 1 {
		t.Errorf("Wilson interval [%v, %v] out of range", ci.WilsonLo, ci.WilsonHi)
	}
	// The snapshot must be JSON-encodable (it is served verbatim).
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
}

// TestAttemptTraceEvents: attempt_trace events round-trip through JSON
// and are counted (not retained) by the aggregator.
func TestAttemptTraceEvents(t *testing.T) {
	e := Event{
		Type:      EventAttemptTrace,
		Benchmark: "mcfm", Level: "LLFI", Category: "all",
		Attempt: 3, Trigger: 1234, Outcome: "sdc",
		Spans: []TraceSpan{
			{Kind: "inject", Site: "@main %mul = mul i32", At: 500},
			{Kind: "store", Site: "@main store i32", At: 510},
			{Kind: "outcome", Site: "sdc", At: 9000},
		},
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 3 || got.Spans[0].Kind != "inject" || got.Spans[2].At != 9000 {
		t.Errorf("trace round-trip lost spans: %+v", got.Spans)
	}
	// Non-trace events must not carry a spans field.
	b, _ = json.Marshal(Event{Type: EventCellDone, Attempts: 5})
	if strings.Contains(string(b), "spans") {
		t.Errorf("cell_done carries spans: %s", b)
	}

	a := NewAggregator()
	a.Record(e)
	a.Record(e)
	if a.Status().Traces != 2 || a.Spans() != 6 {
		t.Errorf("traces = %d, spans = %d, want 2 and 6", a.Status().Traces, a.Spans())
	}
	if !strings.Contains(a.RenderTelemetry(), "attempt traces recorded: 2") {
		t.Error("render missing trace count")
	}
}

// TestStatusCanonicalOrderOnResume is the regression test for the
// /statusz ordering bug: a resumed study's event stream interleaves
// cell_resume (restored cells) and cell_done (recomputed cells) in
// canonical cell order — the order the study's reorder buffer releases
// them — and Status must preserve that interleaving. The old
// implementation read the per-type slices back to back, listing every
// resumed cell after every fresh one.
func TestStatusCanonicalOrderOnResume(t *testing.T) {
	a := NewAggregator()
	a.Record(Event{Type: EventStudyStart, N: 10, Seed: 5, Cells: 4, Shard: "1/3"})
	// Canonical order: resumed, fresh, skipped, resumed — the shape of a
	// -resume run whose interruption left holes mid-study.
	a.Record(Event{Type: EventCellResume, Benchmark: "bzip2m", Level: "LLFI", Category: "all", Attempts: 10})
	a.Record(Event{Type: EventCellDone, Benchmark: "bzip2m", Level: "LLFI", Category: "arith", Attempts: 12})
	a.Record(Event{Type: EventCellSkip, Benchmark: "bzip2m", Level: "LLFI", Category: "cast", Err: "no candidates"})
	a.Record(Event{Type: EventCellResume, Benchmark: "bzip2m", Level: "PINFI", Category: "all", Attempts: 11})
	a.Record(Event{Type: EventCellDeadline, Benchmark: "bzip2m", Level: "PINFI", Category: "arith", Err: "deadline"})

	st := a.Status()
	if st.Shard != "1/3" {
		t.Errorf("status shard = %q, want 1/3", st.Shard)
	}
	want := []struct {
		category string
		resumed  bool
	}{
		{"all", true}, {"arith", false}, {"all", true},
	}
	if len(st.Cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(st.Cells), len(want))
	}
	for i, w := range want {
		if st.Cells[i].Category != w.category || st.Cells[i].Resumed != w.resumed {
			t.Errorf("cells[%d] = %s/resumed=%v, want %s/resumed=%v — canonical order broken",
				i, st.Cells[i].Category, st.Cells[i].Resumed, w.category, w.resumed)
		}
	}
	// Skips likewise keep arrival order across skip and deadline events.
	if len(st.Skips) != 2 || st.Skips[0].Category != "cast" || st.Skips[1].Category != "arith" {
		t.Errorf("skips out of order: %+v", st.Skips)
	}
}
