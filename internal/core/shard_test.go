package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hlfi/internal/fault"
)

func TestParseShardSpec(t *testing.T) {
	good := map[string]ShardSpec{
		"0/1": {Index: 0, Count: 1},
		"0/3": {Index: 0, Count: 3},
		"2/3": {Index: 2, Count: 3},
	}
	for in, want := range good {
		got, err := ParseShardSpec(in)
		if err != nil || got != want {
			t.Errorf("ParseShardSpec(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "3", "a/3", "0/b", "3/3", "-1/3", "0/0", "0/-2"} {
		if _, err := ParseShardSpec(in); err == nil {
			t.Errorf("ParseShardSpec(%q) accepted", in)
		}
	}
}

// TestShardOwnershipPartition: for any count, the shards partition the
// canonical index space — every index owned exactly once.
func TestShardOwnershipPartition(t *testing.T) {
	for count := 1; count <= 5; count++ {
		for i := 0; i < 40; i++ {
			owners := 0
			for idx := 0; idx < count; idx++ {
				if (ShardSpec{Index: idx, Count: count}).Owns(i) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("cell %d owned by %d of %d shards", i, owners, count)
			}
		}
	}
}

// writeShardFile writes a checkpoint with the given header shape and no
// cell records (header validation does not depend on content).
func writeShardFile(t *testing.T, dir, name string, shape CheckpointShape) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w, err := NewCheckpointWriterShape(path, shape)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeHeaderMismatch: shard checkpoints disagreeing on any identity
// field or the shard count are rejected with a typed *HeaderMismatchError that
// names the offending file and field. A shard written under the removed
// per-attempt seeding is refused as it loads, before any reference
// comparison, naming the removed -cell-workers flag.
func TestMergeHeaderMismatch(t *testing.T) {
	base := CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "0/2"}
	cases := []struct {
		name    string
		other   CheckpointShape
		seeding string // appended to the written header when set
		field   string
	}{
		{"n", CheckpointShape{N: 20, Seed: 5, Replay: "off", Shard: "1/2"}, "", "n"},
		{"seed", CheckpointShape{N: 10, Seed: 6, Replay: "off", Shard: "1/2"}, "", "seed"},
		{"seeding", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "1/2"}, "per-attempt", "seeding"},
		{"shard-count", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "1/3"}, "", "shard-count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ref := writeShardFile(t, dir, "a.jsonl", base)
			bad := writeShardFile(t, dir, "b.jsonl", tc.other)
			wantRef := ref
			if tc.seeding != "" {
				raw, err := os.ReadFile(bad)
				if err != nil {
					t.Fatal(err)
				}
				raw = append(bytes.TrimSuffix(raw, []byte("}\n")), `,"seeding":"`+tc.seeding+`"}`+"\n"...)
				if err := os.WriteFile(bad, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				wantRef = ""
			}
			_, err := MergeShardCheckpoints([]string{ref, bad})
			var hm *HeaderMismatchError
			if !errors.As(err, &hm) {
				t.Fatalf("got %v, want *HeaderMismatchError", err)
			}
			if hm.File != bad || hm.Reference != wantRef || hm.Field != tc.field {
				t.Errorf("mismatch = %+v, want file=%s reference=%q field=%s", hm, bad, wantRef, tc.field)
			}
			if tc.seeding != "" && !strings.Contains(err.Error(), "-cell-workers") {
				t.Errorf("seeding refusal does not name the removed flag: %v", err)
			}
			if !strings.Contains(err.Error(), filepath.Base(bad)) {
				t.Errorf("error does not name the offending file: %v", err)
			}
		})
	}
}

// TestMergeRejectsUnshardedAndDuplicates: only shard-tagged checkpoints
// merge, and two files claiming one shard index are rejected.
func TestMergeRejectsUnshardedAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	plain := writeShardFile(t, dir, "plain.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off"})
	if _, err := MergeShardCheckpoints([]string{plain}); err == nil ||
		!strings.Contains(err.Error(), "no shard header") {
		t.Errorf("unsharded checkpoint accepted for merge: %v", err)
	}

	a := writeShardFile(t, dir, "a.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "0/2"})
	b := writeShardFile(t, dir, "b.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "0/2"})
	_, err := MergeShardCheckpoints([]string{a, b})
	var dup *DuplicateShardError
	if !errors.As(err, &dup) {
		t.Fatalf("got %v, want *DuplicateShardError", err)
	}
	if dup.Index != 0 || dup.Prior != a || dup.File != b {
		t.Errorf("duplicate = %+v, want index 0, prior %s, file %s", dup, a, b)
	}
}

// TestMergeMissingShards: a partial file set fails with exactly the
// absent shard indices enumerated.
func TestMergeMissingShards(t *testing.T) {
	dir := t.TempDir()
	have := []string{
		writeShardFile(t, dir, "s1.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "1/4"}),
		writeShardFile(t, dir, "s3.jsonl", CheckpointShape{N: 10, Seed: 5, Replay: "off", Shard: "3/4"}),
	}
	_, err := MergeShardCheckpoints(have)
	var miss *MissingShardsError
	if !errors.As(err, &miss) {
		t.Fatalf("got %v, want *MissingShardsError", err)
	}
	if miss.Count != 4 || len(miss.Missing) != 2 || miss.Missing[0] != 0 || miss.Missing[1] != 2 {
		t.Errorf("missing = %+v, want count 4, missing [0 2]", miss)
	}
	for _, idx := range []string{"0", "2"} {
		if !strings.Contains(err.Error(), idx) {
			t.Errorf("error does not enumerate missing shard %s: %v", idx, err)
		}
	}
}

// TestMergeIncompleteShard: a complete shard file set whose worker died
// mid-run (cells missing from its checkpoint) passes the merge but
// fails VerifyComplete, attributing every unaccounted cell to the shard
// that owns it.
func TestMergeIncompleteShard(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	cats := []fault.Category{fault.CatAll, fault.CatArith}
	cells := CanonicalCells([]*Program{p}, cats)

	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		spec := ShardSpec{Index: i, Count: 2}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		w, err := NewCheckpointWriterShape(path, CheckpointShape{N: 5, Seed: 7, Replay: "off", Shard: spec.String()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := StudyConfig{Programs: []*Program{p}, N: 5, Seed: 7,
			Cells: CanonicalCells([]*Program{p}, cats), Checkpoint: w, Shard: &spec}
		if _, err := RunStudy(cfg); err != nil {
			t.Fatal(err)
		}
		w.Close()
		paths = append(paths, path)
	}

	merged, err := MergeShardCheckpoints(paths)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.VerifyComplete(cells); err != nil {
		t.Fatalf("complete shard set reported incomplete: %v", err)
	}

	// Simulate shard 1 dying mid-run: remove one of its cells from the
	// merged state. Shard 1 owns the odd canonical indices.
	victim := cells[1]
	if merged.State.Cells[victim] == nil {
		t.Fatalf("expected cell %v in merged state", victim)
	}
	delete(merged.State.Cells, victim)
	err = merged.VerifyComplete(cells)
	var inc *IncompleteShardsError
	if !errors.As(err, &inc) {
		t.Fatalf("got %v, want *IncompleteShardsError", err)
	}
	if len(inc.Shards) != 1 {
		t.Fatalf("incomplete shards = %+v, want exactly shard 1", inc.Shards)
	}
	s := inc.Shards[0]
	if s.Index != 1 || s.File != paths[1] || len(s.Missing) != 1 || s.Missing[0] != victim {
		t.Errorf("incomplete = %+v, want index 1, file %s, missing [%v]", s, paths[1], victim)
	}
}
