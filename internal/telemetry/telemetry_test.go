package telemetry_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"hlfi/internal/telemetry"
)

func cell(bm string, durMS float64, attempts, activated int) telemetry.Event {
	return telemetry.Event{
		Type: telemetry.EventCellDone, Benchmark: bm, Level: "ir", Category: "all",
		DurationMS: durMS, ScanMS: durMS / 10, Attempts: attempts, Activated: activated,
	}
}

// TestJSONLSink: one valid JSON object per line, in order.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := telemetry.NewJSONLSink(&buf)
	s.Record(telemetry.Event{Type: telemetry.EventStudyStart, N: 10, Seed: 7, Cells: 2})
	s.Record(cell("bzip2m", 120, 11, 10))
	s.Record(telemetry.Event{Type: telemetry.EventStudyDone, DurationMS: 130})

	var types []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		types = append(types, e.Type)
	}
	want := []string{"study_start", "cell_done", "study_done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event order %v, want %v", types, want)
	}
}

// TestJSONLSinkConcurrent: concurrent Record calls must not interleave
// bytes (run under -race).
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := telemetry.NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Record(cell("quantumm", 1, 2, 2))
		}()
	}
	wg.Wait()
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved JSONL line: %q", sc.Text())
		}
		lines++
	}
	if lines != 32 {
		t.Fatalf("got %d lines, want 32", lines)
	}
}

// TestAggregator: totals, throughput, slowest-cell ordering, summary.
func TestAggregator(t *testing.T) {
	a := telemetry.NewAggregator()
	a.Record(telemetry.Event{Type: telemetry.EventStudyStart, Cells: 3, Parallel: 4})
	a.Record(cell("bzip2m", 300, 12, 10))
	a.Record(cell("mcfm", 700, 15, 10))
	a.Record(cell("quantumm", 500, 10, 10))
	a.Record(telemetry.Event{Type: telemetry.EventCellSkip, Benchmark: "mcfm", Err: "no candidates"})
	a.Record(telemetry.Event{Type: telemetry.EventStudyDone, DurationMS: 1000})

	if st := a.Status(); st.Attempts != 37 || st.Activated != 30 {
		t.Fatalf("Status() attempts, activated = (%d,%d), want (37,30)", st.Attempts, st.Activated)
	}
	if tp := a.Status().ThroughputPerSec; tp < 36.9 || tp > 37.1 {
		t.Fatalf("Status().ThroughputPerSec = %f, want ~37 injections/sec", tp)
	}
	slow := a.SlowestCells(2)
	if len(slow) != 2 || slow[0].Benchmark != "mcfm" || slow[1].Benchmark != "quantumm" {
		t.Fatalf("SlowestCells(2) = %+v", slow)
	}
	out := a.RenderTelemetry()
	for _, want := range []string{"3 cells, 1 skipped", ": 37 (30 activated, 81.1%)", "mcfm", "injections/sec"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestMulti: fan-out reaches every sink, nils are dropped.
func TestMulti(t *testing.T) {
	a1, a2 := telemetry.NewAggregator(), telemetry.NewAggregator()
	m := telemetry.Multi(a1, nil, a2)
	m.Record(cell("hmmerm", 5, 3, 3))
	if len(a1.Cells()) != 1 || len(a2.Cells()) != 1 {
		t.Fatalf("fan-out failed: %d, %d", len(a1.Cells()), len(a2.Cells()))
	}
}

// TestAggregatorResilienceEvents: the fault-tolerance event types are
// tracked and surfaced in the rendered summary.
func TestAggregatorResilienceEvents(t *testing.T) {
	a := telemetry.NewAggregator()
	a.Record(telemetry.Event{Type: telemetry.EventStudyStart, Cells: 4, Parallel: 2})
	a.Record(telemetry.Event{Type: telemetry.EventCellResume, Benchmark: "bzip2m", Activated: 10})
	a.Record(telemetry.Event{Type: telemetry.EventSimFault, Benchmark: "mcfm",
		Attempt: 3, AttemptSeed: 42, Panic: "index out of range"})
	a.Record(cell("mcfm", 100, 12, 80))
	a.Record(telemetry.Event{Type: telemetry.EventCellDeadline, Benchmark: "hmmerm",
		Err: "cell deadline exceeded"})
	a.Record(telemetry.Event{Type: telemetry.EventStudyAbort, Cells: 2, Err: "context canceled"})

	if st := a.Status(); st.CellsResumed != 1 {
		t.Errorf("Status().CellsResumed = %d, want 1", st.CellsResumed)
	}
	if !a.Status().Aborted {
		t.Error("Status().Aborted = false after study_abort")
	}
	sf := a.SimFaults()
	if len(sf) != 1 || sf[0].AttemptSeed != 42 {
		t.Fatalf("SimFaults() = %+v, want one record with seed 42", sf)
	}
	out := a.RenderTelemetry()
	for _, want := range []string{
		"resumed from checkpoint: 1", "simulator panics contained: 1",
		"cells dropped at deadline: 1", "STUDY ABORTED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestEventJSONRoundTrip: the new fields serialize under stable keys and
// absent fields stay omitted.
func TestEventJSONRoundTrip(t *testing.T) {
	e := telemetry.Event{Type: telemetry.EventSimFault, Benchmark: "bzip2m",
		Attempt: 7, AttemptSeed: 99, Panic: "boom"}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"attempt":7`, `"attemptSeed":99`, `"panic":"boom"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("serialized sim_fault missing %s: %s", want, raw)
		}
	}
	plain, _ := json.Marshal(telemetry.Event{Type: telemetry.EventCellDone})
	for _, absent := range []string{"attempt", "panic", "simFaults"} {
		if strings.Contains(string(plain), absent) {
			t.Errorf("zero-valued field %q not omitted: %s", absent, plain)
		}
	}
}
