package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointTruncatedTyped is the satellite truncation matrix: the
// debris of a writer killed before its first fsync — a zero-byte file,
// or a file holding only the torn header line — loads as a typed
// *CheckpointTruncatedError naming the file, while a file with complete
// records but no header stays the distinct "missing study header"
// corruption error.
func TestCheckpointTruncatedTyped(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"zero-byte", ""},
		{"torn header, no newline", `{"type":"study","n":10,"se`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadCheckpointShape(path, CheckpointShape{N: 10, Seed: 5})
			var te *CheckpointTruncatedError
			if !errors.As(err, &te) {
				t.Fatalf("got %v, want *CheckpointTruncatedError", err)
			}
			if te.Path != path {
				t.Errorf("error names %q, want %q", te.Path, path)
			}
			if te.Size != int64(len(tc.content)) {
				t.Errorf("error reports %d bytes, want %d", te.Size, len(tc.content))
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("message does not explain the truncation: %v", err)
			}
		})
	}

	// A header-less file whose records ARE complete is not benign debris:
	// the header line was lost, not torn mid-write. That stays the
	// untyped corruption error so nobody "deletes and starts fresh" over
	// a file that still holds synced results.
	t.Run("complete records, missing header", func(t *testing.T) {
		full := filepath.Join(t.TempDir(), "full.jsonl")
		w, err := NewCheckpointWriterShape(full, CheckpointShape{N: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		runTinyStudy(t, func(cfg *StudyConfig) { cfg.Checkpoint = w })
		w.Close()
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 2)
		if len(lines) != 2 || lines[1] == "" {
			t.Fatal("expected a header line followed by cell records")
		}
		headless := filepath.Join(t.TempDir(), "headless.jsonl")
		if err := os.WriteFile(headless, []byte(lines[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadCheckpointShape(headless, CheckpointShape{N: 10, Seed: 5})
		var te *CheckpointTruncatedError
		if errors.As(err, &te) {
			t.Fatalf("missing-header corruption reported as benign truncation: %v", err)
		}
		if err == nil || !strings.Contains(err.Error(), "missing study header") {
			t.Errorf("got %v, want the missing-header corruption error", err)
		}
	})

	// The merge path surfaces the same typed error for a truncated shard.
	t.Run("truncated shard in a merge", func(t *testing.T) {
		dir := t.TempDir()
		a := writeShardFile(t, dir, "a.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "0/2"})
		empty := filepath.Join(dir, "b.jsonl")
		if err := os.WriteFile(empty, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := MergeShardCheckpoints([]string{a, empty})
		var te *CheckpointTruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("got %v, want *CheckpointTruncatedError", err)
		}
		if te.Path != empty {
			t.Errorf("error names %q, want the truncated shard %q", te.Path, empty)
		}
	})
}

// TestMergeSameFileDuplicate: one physical checkpoint reaching the merge
// twice — a literal repeat or a symlink alias — is a typed
// *DuplicateShardError with SameFile set, naming both paths, instead of
// a silent dedup or a confusing duplicate-index message.
func TestMergeSameFileDuplicate(t *testing.T) {
	dir := t.TempDir()
	a := writeShardFile(t, dir, "a.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "0/2"})
	b := writeShardFile(t, dir, "b.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "1/2"})

	t.Run("literal repeat", func(t *testing.T) {
		_, err := MergeShardCheckpoints([]string{a, b, a})
		var dup *DuplicateShardError
		if !errors.As(err, &dup) {
			t.Fatalf("got %v, want *DuplicateShardError", err)
		}
		if !dup.SameFile {
			t.Error("repeat of one path not flagged as SameFile")
		}
		if dup.File != a || dup.Prior != a || dup.Index != 0 {
			t.Errorf("duplicate = %+v, want %s aliasing itself at index 0", dup, a)
		}
		if !strings.Contains(err.Error(), "same file") {
			t.Errorf("message does not say the paths alias one file: %v", err)
		}
	})

	t.Run("symlink alias", func(t *testing.T) {
		link := filepath.Join(dir, "link.jsonl")
		if err := os.Symlink(a, link); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
		_, err := MergeShardCheckpoints([]string{a, b, link})
		var dup *DuplicateShardError
		if !errors.As(err, &dup) {
			t.Fatalf("got %v, want *DuplicateShardError", err)
		}
		if !dup.SameFile {
			t.Error("symlink alias not flagged as SameFile")
		}
		if dup.File != link || dup.Prior != a {
			t.Errorf("duplicate = %+v, want link %s aliasing %s", dup, link, a)
		}
		if !strings.Contains(err.Error(), link) || !strings.Contains(err.Error(), a) {
			t.Errorf("message does not name both aliases: %v", err)
		}
	})
}
