package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlags(t *testing.T) {
	if err := run([]string{"-bench", "quantumm", "-category", "cmp", "-n", "15", "-seed", "2"}); err != nil {
		t.Fatalf("basic campaign: %v", err)
	}
	if err := run([]string{"-bench", "quantumm", "-ir"}); err != nil {
		t.Fatalf("-ir dump: %v", err)
	}
	if err := run([]string{"-category", "cmp"}); err == nil {
		t.Error("missing -bench/-src accepted")
	}
	if err := run([]string{"-bench", "quantumm", "-category", "bogus"}); err == nil {
		t.Error("bad category accepted")
	}
	if err := run([]string{"-bench", "quantumm", "-category", "cmp", "-n", "5", "-reference"}); err != nil {
		t.Fatalf("-reference: %v", err)
	}
	if err := run([]string{"-bench", "quantumm", "-no-compiled"}); err == nil {
		t.Error("removed -no-compiled accepted")
	}
}

// eventStream reads a JSONL event file as its events' types and the
// last event's replay hit count.
func eventStream(t *testing.T, path string) (types []string, lastReplayHits uint64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e struct {
			Type       string `json:"type"`
			ReplayHits uint64 `json:"replayHits"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		types, lastReplayHits = append(types, e.Type), e.ReplayHits
	}
	return types, lastReplayHits
}

// TestRunEvents: -events captures the one-cell study as a JSONL stream
// bracketed by study_start/study_done, and study_done carries the
// replay fields as ficompare's does.
func TestRunEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := run([]string{"-bench", "quantumm", "-category", "cmp", "-n", "10", "-events", path}); err != nil {
		t.Fatal(err)
	}
	types, hits := eventStream(t, path)
	if got := strings.Join(types, "/"); got != "study_start/cell_done/study_done" {
		t.Fatalf("stream = %s, want study_start/cell_done/study_done", got)
	}
	if hits == 0 {
		t.Error("study_done carries no replay fields")
	}
}

// TestRunSkipAndHardErrorEvents: a -src cell with no candidates is a
// soft skip, reported as a cell_skip inside a bracketed stream and as a
// non-zero exit; a hard error (-n 0) fails the run without a cell_skip.
func TestRunSkipAndHardErrorEvents(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "nocmp.c")
	if err := os.WriteFile(src, []byte("int main() {\n    print_int(7);\n    return 0;\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "skip.jsonl")
	err := run([]string{"-src", src, "-category", "cmp", "-n", "5", "-events", path})
	if err == nil || !strings.Contains(err.Error(), "no dynamic injection candidates") {
		t.Fatalf("no-candidates cell: err = %v, want the skip reason", err)
	}
	if types, _ := eventStream(t, path); strings.Join(types, "/") != "study_start/cell_skip/study_done" {
		t.Errorf("no-candidates stream = %v, want study_start/cell_skip/study_done", types)
	}

	path = filepath.Join(dir, "hard.jsonl")
	if err := run([]string{"-bench", "quantumm", "-category", "cmp", "-n", "0", "-events", path}); err == nil {
		t.Fatal("-n 0 accepted")
	}
	if types, _ := eventStream(t, path); strings.Join(types, "/") != "study_start" {
		t.Errorf("hard-error stream = %v, want study_start alone (no cell_skip)", types)
	}
}
