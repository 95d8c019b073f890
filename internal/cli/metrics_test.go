package cli

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hlfi/internal/adaptive"
	"hlfi/internal/core"
	"hlfi/internal/telemetry"
)

// TestWireMetricsExposition pins the /metrics exposition of a fixed
// study driven through Wire and Arm: snapshot replay and the compiled
// engines on, two traced attempts per cell, adaptive sampling with a
// round-2 extension, and a cold then a warm result warehouse (one
// study, one process-style wiring each). Every series name, # HELP and
// # TYPE line is pinned, and so is the value of every deterministic
// series: counters, gauges and the restore-distance buckets exactly,
// the timing histograms by their _count only. The cell, trace and
// attempt series must also equal the same study's /statusz.
func TestWireMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two studies")
	}
	prog, err := LoadProgram("quantumm", "")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*core.Program{prog}
	acfg, err := adaptive.Parse("eps=0.1,min=20,check=10")
	if err != nil {
		t.Fatal(err)
	}
	store := t.TempDir()
	study := func() (string, telemetry.StudyStatus) {
		t.Helper()
		replay, compiled := Policy(false)
		shape := core.CheckpointShape{N: 60, Seed: 1, Replay: replay.Signature(),
			Compiled: compiled.Signature(), Adaptive: acfg.Signature()}
		wr, err := Wire(shape, progs, "", "127.0.0.1:0", store, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer wr.Close()
		cfg := core.StudyConfig{Programs: progs, N: 60, Seed: 1, Parallel: 2,
			Cells:  core.CanonicalCells(progs, nil),
			Replay: replay, Compiled: compiled, TraceAttempts: 2, Adaptive: acfg}
		wr.Arm(&cfg)
		if _, err := core.RunStudy(cfg); err != nil {
			t.Fatal(err)
		}
		var st telemetry.StudyStatus
		if err := json.Unmarshal([]byte(get(t, "http://"+wr.srv.Addr()+"/statusz")), &st); err != nil {
			t.Fatal(err)
		}
		return get(t, "http://"+wr.srv.Addr()+"/metrics"), st
	}
	for _, run := range []string{"cold", "warm"} {
		text, st := study()
		for name, want := range map[string]int{
			"hlfi_cells_planned":        st.CellsPlanned,
			"hlfi_cells_done_total":     st.CellsDone,
			"hlfi_cells_skipped_total":  st.CellsSkipped + st.CellsDeadline,
			"hlfi_cells_resumed_total":  st.CellsResumed,
			"hlfi_trace_attempts_total": st.Traces,
			// The cold study extends a cell in round 2, whose replayed
			// round-1 prefix must not count twice.
			"hlfi_attempts_total": st.Attempts,
		} {
			if got := seriesValue(text, name); got != strconv.Itoa(want) {
				t.Errorf("%s study: %s = %s, /statusz says %d", run, name, got, want)
			}
		}
		got := normalizeExposition(text)
		path := filepath.Join("testdata", "metrics_"+run+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s study: /metrics differs from %s:\n%s", run, path, lineDiff(string(want), got))
		}
	}
}

// get fetches url and returns the body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue returns the value of one unlabeled series in an
// exposition ("" if absent).
func seriesValue(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// normalizeExposition drops the timing-dependent lines of an exposition
// (every bucket and sum of the two latency histograms, keeping their
// _count) and names the toolchain in hlfi_build_info generically.
func normalizeExposition(text string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		for _, h := range []string{"hlfi_attempt_seconds", "hlfi_cell_seconds"} {
			if strings.HasPrefix(line, h+"_bucket") || strings.HasPrefix(line, h+"_sum") {
				line = ""
			}
		}
		sb.WriteString(strings.Replace(line, `go="`+runtime.Version()+`"`, `go="GO"`, 1))
	}
	return sb.String()
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var sb strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			sb.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			sb.WriteString("+ " + l + "\n")
		}
	}
	return sb.String()
}
