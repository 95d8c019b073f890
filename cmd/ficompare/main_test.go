package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hlfi/internal/cli"
	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// TestRunExperiments smoke-tests the CLI surface in-process with tiny
// sample sizes.
func TestRunExperiments(t *testing.T) {
	cases := [][]string{
		{"-experiment", "table2"},
		{"-experiment", "table4", "-benchmarks", "quantumm", "-q"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "10", "-q"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "10", "-q", "-json"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "10", "-q", "-parallel", "3"},
		{"-experiment", "table5", "-benchmarks", "quantumm", "-n", "10", "-q", "-json"},
		{"-experiment", "all", "-benchmarks", "quantumm", "-n", "10", "-q", "-parallel", "2"},
		{"-experiment", "calibration", "-benchmarks", "quantumm", "-n", "10", "-q"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"-experiment", "nope", "-benchmarks", "quantumm", "-n", "5", "-q"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-experiment", "fig3", "-benchmarks", "nosuch", "-n", "5", "-q"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestRunEventsSink: -events writes a JSONL stream bracketed by
// study_start/study_done with one cell event per cell.
func TestRunEventsSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	args := []string{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "8", "-q",
		"-parallel", "2", "-events", path}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var types []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		types = append(types, e.Type)
	}
	// quantumm alone: 10 cells (2 levels x 5 categories) + the brackets.
	if len(types) != 12 {
		t.Fatalf("got %d events, want 12: %v", len(types), types)
	}
	if types[0] != "study_start" || types[len(types)-1] != "study_done" {
		t.Fatalf("stream not bracketed: %v", types)
	}
}

// TestRunCheckpointResume: -checkpoint writes a loadable JSONL file and
// -resume accepts it (restoring cells instead of re-running); the
// fault-tolerance flags parse.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.jsonl")
	base := []string{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "8", "-q"}
	if err := run(append(base, "-checkpoint", ck)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var types []string
	for sc.Scan() {
		var line struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad checkpoint line %q: %v", sc.Text(), err)
		}
		types = append(types, line.Type)
	}
	// quantumm: header + 10 cells (2 levels x 5 categories).
	if len(types) != 11 || types[0] != "study" {
		t.Fatalf("checkpoint types = %v, want study header + 10 cells", types)
	}

	if err := run(append(base, "-resume", ck)); err != nil {
		t.Fatalf("resume: %v", err)
	}
	// The resume run appended its (resumed-run) cells? No: resumed cells
	// are not rewritten, so the file must be unchanged in line count.
	f2, _ := os.Open(ck)
	defer f2.Close()
	n := 0
	for sc2 := bufio.NewScanner(f2); sc2.Scan(); {
		n++
	}
	if n != 11 {
		t.Errorf("resume rewrote resumed cells: %d lines, want 11", n)
	}

	// Shape mismatch is refused.
	if err := run([]string{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "9", "-q", "-resume", ck}); err == nil {
		t.Error("resume with mismatched -n accepted")
	}

	// Fault-tolerance flags parse and run.
	if err := run(append(base, "-sim-fault-limit", "-1", "-cell-deadline", "1m")); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run failed: %v\noutput so far:\n%s", runErr, out)
	}
	return string(out)
}

// TestRunShardMerge: three -shard workers plus a -merge render the
// byte-identical report of the single-process run, end to end through
// the CLI.
func TestRunShardMerge(t *testing.T) {
	base := []string{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "8", "-q"}
	golden := captureStdout(t, func() error { return run(base) })

	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		ck := filepath.Join(dir, fmt.Sprintf("shard-%d-of-3.jsonl", i))
		if err := run(append(base, "-shard", fmt.Sprintf("%d/3", i), "-checkpoint", ck)); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	glob := filepath.Join(dir, "shard-*-of-3.jsonl")
	merged := captureStdout(t, func() error { return run(append(base, "-merge", glob)) })
	if merged != golden {
		t.Errorf("merged report differs from single-process run:\n--- single ---\n%s\n--- merged ---\n%s", golden, merged)
	}

	// A shard worker restarted with -resume on its own checkpoint is a
	// no-op (all its cells restore) and keeps the file mergeable.
	ck0 := filepath.Join(dir, "shard-0-of-3.jsonl")
	if err := run(append(base, "-shard", "0/3", "-resume", ck0)); err != nil {
		t.Fatalf("shard resume: %v", err)
	}
	remerged := captureStdout(t, func() error { return run(append(base, "-merge", glob)) })
	if remerged != golden {
		t.Error("merge after shard resume no longer byte-identical")
	}

	// With one shard checkpoint gone, the merge names the missing index.
	if err := os.Remove(filepath.Join(dir, "shard-1-of-3.jsonl")); err != nil {
		t.Fatal(err)
	}
	err := run(append(base, "-merge", glob))
	if err == nil || !strings.Contains(err.Error(), "missing shard(s) 1") {
		t.Errorf("merge with absent shard: %v, want missing-shard error naming index 1", err)
	}
}

// TestRunIdentityAndPolicy: resume, merge and the warehouse follow the
// study identity. Flipping the execution policy (snapshot replay, the
// compiled engines) between runs is accepted and renders the same
// report; a checkpoint or shard set written under the removed
// per-attempt seeding (-cell-workers > 1) is refused on -resume and on
// -merge with a typed error naming seeding and the removed flag.
func TestRunIdentityAndPolicy(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "8", "-q"}
	with := func(extra ...string) []string { return append(append([]string(nil), base...), extra...) }
	golden := captureStdout(t, func() error { return run(base) })
	wantSeeding := func(what string, err error) {
		t.Helper()
		var hm *core.HeaderMismatchError
		if !errors.As(err, &hm) || hm.Field != "seeding" || !strings.Contains(err.Error(), "-cell-workers") {
			t.Errorf("%s: %v, want a *HeaderMismatchError naming seeding and -cell-workers", what, err)
		}
	}
	// perAttempt copies a checkpoint with its header rewritten as a
	// -cell-workers 2 run wrote it before the discipline was removed.
	perAttempt := func(src, dst string) {
		t.Helper()
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		hdr, rest, _ := strings.Cut(string(raw), "\n")
		raw = []byte(strings.TrimSuffix(hdr, "}") + `,"seeding":"per-attempt"}` + "\n" + rest)
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ck := filepath.Join(dir, "ck.jsonl")
	if err := run(with("-checkpoint", ck)); err != nil {
		t.Fatal(err)
	}
	oldCk := filepath.Join(dir, "per-attempt.jsonl")
	perAttempt(ck, oldCk)
	wantSeeding("resume of a per-attempt checkpoint", run(with("-resume", oldCk)))

	// Keep the header and two records; the resume re-runs the rest with
	// -reference.
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if err := os.WriteFile(ck, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := captureStdout(t, func() error { return run(with("-reference", "-resume", ck)) }); got != golden {
		t.Errorf("resume with the engines off differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", golden, got)
	}

	// A warehouse filled with the compiled engines serves a run with
	// -reference without executing a cell.
	wh := filepath.Join(dir, "wh")
	captureStdout(t, func() error { return run(with("-warehouse", wh)) })
	events := filepath.Join(dir, "events.jsonl")
	if got := captureStdout(t, func() error {
		return run(with("-reference", "-warehouse", wh, "-events", events))
	}); got != golden {
		t.Errorf("warm warehouse run with the engines off differs:\n--- want ---\n%s\n--- got ---\n%s", golden, got)
	}
	stream, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(stream), `"type":"cell_done"`) || !strings.Contains(string(stream), `"type":"warehouse_hit"`) {
		t.Errorf("warm run executed cells instead of serving them from the warehouse:\n%s", stream)
	}

	// Per-attempt shards merge no more; the same shards as written
	// today merge into the golden report.
	for i := 0; i < 2; i++ {
		shard := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		if err := run(with("-shard", fmt.Sprintf("%d/2", i), "-checkpoint", shard)); err != nil {
			t.Fatal(err)
		}
		perAttempt(shard, filepath.Join(dir, fmt.Sprintf("old-%d.jsonl", i)))
	}
	wantSeeding("merge of per-attempt shards", run(with("-merge", filepath.Join(dir, "old-*.jsonl"))))
	if got := captureStdout(t, func() error { return run(with("-merge", filepath.Join(dir, "shard-*.jsonl"))) }); got != golden {
		t.Errorf("merge differs from the single-process run:\n--- want ---\n%s\n--- got ---\n%s", golden, got)
	}
}

// checkpointBody returns the cell and skip records of the checkpoint
// files, sorted: records are appended in completion order, so two runs
// of one study leave the same body in any order.
func checkpointBody(t *testing.T, paths ...string) string {
	t.Helper()
	var body []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if line != "" && !strings.HasPrefix(line, `{"type":"study"`) {
				body = append(body, line)
			}
		}
	}
	sort.Strings(body)
	return strings.Join(body, "")
}

// TestRunCalibrationPaths: the calibration experiment runs through the
// one study scheduler, so every execution path renders the same report
// and leaves the same checkpoint body as the serial run.
func TestRunCalibrationPaths(t *testing.T) {
	dir := t.TempDir()
	with := func(extra ...string) []string {
		return append([]string{"-experiment", "calibration", "-benchmarks", "quantumm", "-n", "12", "-q"}, extra...)
	}
	refCk := filepath.Join(dir, "ref.jsonl")
	golden := captureStdout(t, func() error { return run(with("-parallel", "1", "-checkpoint", refCk)) })
	want := checkpointBody(t, refCk)
	if !strings.Contains(want, `"variant":1`) || !strings.Contains(want, `"variant":2`) {
		t.Fatalf("checkpoint lacks the calibrated and resampled arms:\n%s", want)
	}
	wh := filepath.Join(dir, "wh")
	cases := []struct {
		name string
		// run returns the report and the checkpoint files it wrote.
		run func(t *testing.T, ck string) (string, []string)
	}{
		{"parallel 4", func(t *testing.T, ck string) (string, []string) {
			return captureStdout(t, func() error { return run(with("-parallel", "4", "-checkpoint", ck)) }), []string{ck}
		}},
		{"resume from truncated checkpoint", func(t *testing.T, ck string) (string, []string) {
			raw, err := os.ReadFile(refCk)
			if err != nil {
				t.Fatal(err)
			}
			// Four whole records and a torn fifth, as a killed writer
			// leaves them. Resuming twice proves the torn tail is cut
			// off rather than fused with the next record.
			lines := strings.SplitAfter(string(raw), "\n")
			torn := strings.Join(lines[:5], "") + lines[5][:len(lines[5])/2]
			if err := os.WriteFile(ck, []byte(torn), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run(with("-parallel", "2", "-resume", ck)); err != nil {
				t.Fatal(err)
			}
			return captureStdout(t, func() error { return run(with("-resume", ck)) }), []string{ck}
		}},
		{"cold warehouse", func(t *testing.T, ck string) (string, []string) {
			return captureStdout(t, func() error { return run(with("-warehouse", wh, "-checkpoint", ck)) }), []string{ck}
		}},
		{"warm warehouse", func(t *testing.T, ck string) (string, []string) {
			events := filepath.Join(dir, "warm-events.jsonl")
			out := captureStdout(t, func() error { return run(with("-warehouse", wh, "-checkpoint", ck, "-events", events)) })
			stream, err := os.ReadFile(events)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(stream), `"type":"cell_done"`) {
				t.Errorf("warm run executed cells instead of serving them from the warehouse")
			}
			return out, []string{ck}
		}},
		{"shard 0/2,1/2 then merge", func(t *testing.T, ck string) (string, []string) {
			var shards []string
			for i := 0; i < 2; i++ {
				shard := filepath.Join(dir, fmt.Sprintf("cal-shard-%d.jsonl", i))
				if err := run(with("-shard", fmt.Sprintf("%d/2", i), "-checkpoint", shard)); err != nil {
					t.Fatal(err)
				}
				shards = append(shards, shard)
			}
			return captureStdout(t, func() error { return run(with("-merge", filepath.Join(dir, "cal-shard-*.jsonl"))) }), shards
		}},
	}
	for i, tc := range cases {
		ck := filepath.Join(dir, fmt.Sprintf("ck-%d.jsonl", i))
		got, files := tc.run(t, ck)
		if got != golden {
			t.Errorf("%s: report differs from the serial run:\n--- want ---\n%s\n--- got ---\n%s", tc.name, golden, got)
		}
		if body := checkpointBody(t, files...); body != want {
			t.Errorf("%s: checkpoint body differs from the serial run:\n--- want ---\n%s\n--- got ---\n%s", tc.name, want, body)
		}
	}
}

// TestRunScaleOutFlagValidation: the scale-out modes reject nonsensical
// combinations up front.
func TestRunScaleOutFlagValidation(t *testing.T) {
	reject := [][]string{
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-shard", "0/2", "-merge", "x*.jsonl"},
		{"-experiment", "table4", "-benchmarks", "quantumm", "-shard", "0/2"},
		{"-experiment", "table2", "-merge", "x*.jsonl"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-merge", "x*.jsonl", "-checkpoint", "ck.jsonl"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-merge", "x*.jsonl", "-resume", "ck.jsonl"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "5", "-q", "-shard", "2/2"},
		{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "5", "-q", "-shard", "junk"},
		{"-experiment", "table4", "-benchmarks", "quantumm", "-warehouse", "wh", "-warehouse-query"},
		{"-experiment", "table2", "-json"},
		{"-experiment", "table4", "-benchmarks", "quantumm", "-json"},
		{"-experiment", "calibration", "-benchmarks", "quantumm", "-json"},
		// -reference is the only engine flag.
		{"-compiled=false"}, {"-no-compiled"}, {"-no-snapshots"},
		{"-snapshot-stride", "777"}, {"-snapshot-mem-budget", "-1"},
	}
	for _, args := range reject {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted, want rejection", args)
		}
	}
	// Per-attempt seeding is gone: every cell draws one sequential
	// stream, and the flag that selected the other discipline no longer
	// parses.
	if err := run([]string{"-experiment", "fig3", "-benchmarks", "quantumm", "-n", "5", "-q", "-cell-workers", "2"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -cell-workers") {
		t.Errorf("-cell-workers 2: %v, want a flag parsing error", err)
	}
	// -json is refused before any program is built (an unknown
	// benchmark would otherwise fail first) for experiments without a
	// JSON form, with WriteExperimentJSON's message.
	for _, exp := range []string{"table2", "table4", "calibration"} {
		err := run([]string{"-experiment", exp, "-benchmarks", "nosuch", "-json"})
		if want := core.CheckExperimentJSON(exp); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("-experiment %s -json: %v, want %v", exp, err, want)
		}
	}
}

// singleCell runs one cell through cli.RunCampaign, the whole of
// llfi-run (IR) and pinfi-run (ASM) past flag parsing, and returns its
// stdout.
func singleCell(t *testing.T, level fault.Level, cat fault.Category, opts cli.CampaignOptions) string {
	t.Helper()
	prog, err := cli.LoadProgram("quantumm", "")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := cli.RunCampaign(&out, prog, level, cat, opts); err != nil {
		t.Fatalf("%s %s: %v", level, cat, err)
	}
	return out.String()
}

// singleCellCases are the cells the cross-CLI tests compare: both
// levels, categories all and cmp.
var singleCellCases = []struct {
	level fault.Level
	cat   fault.Category
}{
	{fault.LevelIR, fault.CatAll}, {fault.LevelIR, fault.CatCmp},
	{fault.LevelASM, fault.CatAll}, {fault.LevelASM, fault.CatCmp},
}

// TestSingleCellMatchesStudy: -seed names the same sample on every CLI.
// llfi-run and pinfi-run at -n 20 -seed 3 print the outcome counts and
// candidate count of the matching cell of ficompare -json.
func TestSingleCellMatchesStudy(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-json", "-benchmarks", "quantumm", "-n", "20", "-seed", "3", "-q"})
	})
	var doc struct {
		Cells []struct {
			Tool, Category           string
			Crash, SDC, Hang, Benign int
			DynCandidates            uint64
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range singleCellCases {
		got := singleCell(t, tc.level, tc.cat, cli.CampaignOptions{N: 20, Seed: 3})
		found := false
		for _, c := range doc.Cells {
			if c.Tool != tc.level.String() || c.Category != tc.cat.String() {
				continue
			}
			found = true
			for _, want := range []string{
				fmt.Sprintf("category %s: %d dynamic candidate instructions", c.Category, c.DynCandidates),
				fmt.Sprintf("crash  : %4d", c.Crash), fmt.Sprintf("sdc    : %4d", c.SDC),
				fmt.Sprintf("hang   : %4d", c.Hang), fmt.Sprintf("benign : %4d", c.Benign),
			} {
				if !strings.Contains(got, want) {
					t.Errorf("%s %s: single-cell output lacks ficompare's %q:\n%s", tc.level, tc.cat, want, got)
				}
			}
		}
		if !found {
			t.Errorf("%s %s: no such cell in ficompare -json", tc.level, tc.cat)
		}
	}
}

// TestSingleCellSharesWarehouse: a warehouse filled by ficompare serves
// both single-cell CLIs without executing a cell or storing a record,
// and their stdout is byte-identical to a cold run.
func TestSingleCellSharesWarehouse(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh")
	captureStdout(t, func() error {
		return run([]string{"-benchmarks", "quantumm", "-n", "20", "-seed", "3", "-q", "-warehouse", wh})
	})
	objects := func() int {
		t.Helper()
		n := 0
		err := filepath.WalkDir(filepath.Join(wh, "objects"), func(_ string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	filled := objects()
	for i, tc := range singleCellCases {
		cold := singleCell(t, tc.level, tc.cat, cli.CampaignOptions{N: 20, Seed: 3})
		events := filepath.Join(dir, fmt.Sprintf("events-%d.jsonl", i))
		warm := singleCell(t, tc.level, tc.cat, cli.CampaignOptions{N: 20, Seed: 3, Warehouse: wh, EventsPath: events})
		if warm != cold {
			t.Errorf("%s %s: warehouse-served output differs from a cold run:\n--- cold ---\n%s--- warm ---\n%s", tc.level, tc.cat, cold, warm)
		}
		stream, err := os.ReadFile(events)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(stream), `"type":"cell_done"`) || !strings.Contains(string(stream), `"type":"warehouse_hit"`) {
			t.Errorf("%s %s: the cell was executed instead of served from ficompare's warehouse:\n%s", tc.level, tc.cat, stream)
		}
	}
	if got := objects(); got != filled {
		t.Errorf("single-cell runs grew ficompare's warehouse from %d to %d records", filled, got)
	}
}
