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

// TestRunEvents: -events captures the single-cell campaign as a JSONL
// stream bracketed by study_start/study_done (flag parity with
// ficompare).
func TestRunEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := run([]string{"-bench", "quantumm", "-category", "cmp", "-n", "10", "-events", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d events, want study_start + cell_done + study_done:\n%s", len(lines), raw)
	}
	var first, mid, last struct {
		Type string `json:"type"`
	}
	for i, dst := range []any{&first, &mid, &last} {
		if err := json.Unmarshal([]byte(lines[i]), dst); err != nil {
			t.Fatalf("bad JSONL line %q: %v", lines[i], err)
		}
	}
	if first.Type != "study_start" || mid.Type != "cell_done" || last.Type != "study_done" {
		t.Fatalf("stream = %s/%s/%s", first.Type, mid.Type, last.Type)
	}
}
