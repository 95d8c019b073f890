package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hlfi/internal/fault"
)

// FuzzLoadCheckpoint throws arbitrary file bytes at the checkpoint
// loader behind -resume and -merge. It must never panic, it must refuse
// any study header of the removed per-attempt seeding discipline, and
// any state it does load must survive a write and a second load
// unchanged: what the loader accepts, the writer can reproduce.
func FuzzLoadCheckpoint(f *testing.F) {
	header := `{"type":"study","version":1,"n":10,"seed":5,"replay":"off","compiled":"on","adaptive":"eps=0.1,min=16,check=8"}` + "\n"
	cell := `{"type":"cell","benchmark":"bzip2m","level":"LLFI","category":"all","result":{"benign":3,"sdc":2,"crash":1,"hang":1,"notActivated":4,"attempts":12,"simFaults":1,"dynCandidates":42,"target":7,"converged":true,"round1":{"benign":1,"sdc":1,"crash":0,"hang":0,"notActivated":2,"attempts":4}}}` + "\n"
	skip := `{"type":"skip","benchmark":"mcfm","level":"PINFI","category":"cast","kind":"no-candidates","err":"no candidates"}` + "\n"
	abandon := `{"type":"skip","benchmark":"bzip2m","level":"LLFI","category":"all","kind":"deadline","err":"cell deadline exceeded","target":16,"base":10}` + "\n"
	f.Add([]byte(header + cell + skip))
	f.Add([]byte(header + cell + abandon))
	f.Add([]byte(header + cell + abandon[:len(abandon)-20]))
	f.Add([]byte(header + skip + strings.Replace(abandon, "bzip2m", "mcfm", 1)))
	f.Add([]byte(header + skip + cell))
	f.Add([]byte(`{"type":"study","version":1,"n":4,"seed":7,"shard":"1/3"}` + "\n" + cell[:40]))
	f.Add([]byte(cell + header))
	f.Add([]byte(`{"type":"skip","benchmark":"x","level":"LLFI","category":"all"}`))
	f.Add([]byte{})
	for _, tc := range variantLines {
		f.Add([]byte(header + tc.line))
	}
	f.Add([]byte(header + `{"type":"cell","benchmark":"bzip2m","level":"MIPS","category":"all","result":{"benign":1,"attempts":1,"dynCandidates":1}}` + "\n"))
	f.Add([]byte(header + `{"type":"skip","benchmark":"bzip2m","category":"all","kind":"no-candidates","err":"x"}` + "\n"))
	perAttempt := []byte(`{"type":"study","version":1,"n":10,"seed":5,"seeding":"per-attempt"}` + "\n" + cell)
	in := filepath.Join(f.TempDir(), "per-attempt.jsonl")
	if err := os.WriteFile(in, perAttempt, 0o644); err != nil {
		f.Fatal(err)
	}
	var hm *HeaderMismatchError
	if _, _, err := readCheckpoint(in); !errors.As(err, &hm) || hm.Field != "seeding" {
		f.Fatalf("per-attempt header: %v, want a seeding *HeaderMismatchError", err)
	}
	f.Add(perAttempt)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, hdr, err := readCheckpoint(in)
		if err != nil {
			return
		}
		for _, raw := range bytes.Split(data, []byte{'\n'}) {
			var line checkpointLine
			if json.Unmarshal(raw, &line) == nil && line.Type == "study" && line.Seeding != "" && line.Seeding != "sequential" {
				t.Fatalf("loader accepted a study header with seeding %q", line.Seeding)
			}
		}
		for key, res := range st.Cells {
			if err := checkVariant(key.Level, key.Variant); err != nil || key.Level == 0 || key.Category == 0 {
				t.Fatalf("loader accepted an invalid cell %v: %v", key, err)
			}
			if err := RecordOf(res).Validate(); err != nil {
				t.Fatalf("loader accepted an invalid record: %v", err)
			}
		}
		for key := range st.Skips {
			if err := checkVariant(key.Level, key.Variant); err != nil || key.Level == 0 || key.Category == 0 {
				t.Fatalf("loader accepted an invalid skip %v: %v", key, err)
			}
		}
		for key, a := range st.abandoned {
			if err := checkVariant(key.Level, key.Variant); err != nil || key.Level == 0 || key.Category == 0 || a.Base <= 0 || a.Target <= a.Base {
				t.Fatalf("loader accepted an invalid abandoned extension %v %+v: %v", key, a, err)
			}
		}
		out := filepath.Join(dir, "out.jsonl")
		w, err := NewCheckpointWriterShape(out, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for key, res := range st.Cells {
			if err := w.Cell(key, res); err != nil {
				t.Fatal(err)
			}
		}
		for key, skip := range st.Skips {
			if err := w.Skip(key, skip); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range st.abandoned {
			if err := w.append(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st2, hdr2, err := readCheckpoint(out)
		if err != nil {
			t.Fatalf("rewritten checkpoint does not load: %v", err)
		}
		if hdr2 != hdr {
			t.Errorf("header changed across a rewrite:\nfirst  %+v\nsecond %+v", hdr, hdr2)
		}
		if !reflect.DeepEqual(st2, st) {
			t.Errorf("state changed across a rewrite:\nfirst  %+v\nsecond %+v", st, st2)
		}
	})
}

// variantLines are checkpoint records of non-paper cell variants: the
// loader keys a valid one by its variant and refuses one no injector
// runs with a typed *InvalidVariantError.
var variantLines = []struct {
	name, line string
	cell, skip CellKey // the key a valid line loads as
}{
	{name: "calibrated cell",
		line: `{"type":"cell","benchmark":"bzip2m","level":"LLFI","category":"all","variant":1,"result":{"benign":3,"sdc":2,"crash":1,"hang":0,"notActivated":0,"attempts":6,"dynCandidates":42}}` + "\n",
		cell: CellKey{Prog: "bzip2m", Level: fault.LevelIR, Category: fault.CatAll, Variant: VariantCalibrated}},
	{name: "resampled skip",
		line: `{"type":"skip","benchmark":"mcfm","level":"PINFI","category":"cast","variant":2,"kind":"no-candidates","err":"no candidates"}` + "\n",
		skip: CellKey{Prog: "mcfm", Level: fault.LevelASM, Category: fault.CatCast, Variant: VariantResampled}},
	{name: "unknown variant",
		line: `{"type":"cell","benchmark":"bzip2m","level":"LLFI","category":"all","variant":7,"result":{"benign":1,"attempts":1,"dynCandidates":1}}` + "\n"},
	{name: "calibrated at ASM",
		line: `{"type":"skip","benchmark":"mcfm","level":"PINFI","category":"all","variant":1,"kind":"no-candidates","err":"x"}` + "\n"},
}

func TestLoadCheckpointVariants(t *testing.T) {
	header := `{"type":"study","version":1,"n":10,"seed":5}` + "\n"
	for _, tc := range variantLines {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, []byte(header+tc.line), 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := readCheckpoint(path)
		var ive *InvalidVariantError
		switch {
		case tc.cell == (CellKey{}) && tc.skip == (CellKey{}):
			if !errors.As(err, &ive) {
				t.Errorf("%s: %v, want *InvalidVariantError", tc.name, err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.cell != (CellKey{}) && (len(st.Cells) != 1 || st.Cells[tc.cell] == nil):
			t.Errorf("%s: cells %v, want one keyed %v", tc.name, st.Cells, tc.cell)
		case tc.skip != (CellKey{}) && (len(st.Skips) != 1 || st.Skips[tc.skip] == (CheckpointSkip{})):
			t.Errorf("%s: skips %v, want one keyed %v", tc.name, st.Skips, tc.skip)
		}
	}
}
