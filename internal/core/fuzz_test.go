package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCheckpoint throws arbitrary file bytes at the checkpoint
// loader behind -resume and -merge. It must never panic, and any state
// it does load must survive a write and a second load unchanged: what
// the loader accepts, the writer can reproduce.
func FuzzLoadCheckpoint(f *testing.F) {
	header := `{"type":"study","version":1,"n":10,"seed":5,"replay":"off","compiled":"on","adaptive":"eps=0.1,min=16,check=8","seeding":"per-attempt"}` + "\n"
	cell := `{"type":"cell","benchmark":"bzip2m","level":"LLFI","category":"all","result":{"benign":3,"sdc":2,"crash":1,"hang":1,"notActivated":4,"attempts":11,"simFaults":1,"dynCandidates":42,"target":7,"converged":true,"round1":{"benign":1,"sdc":1,"crash":0,"hang":0,"notActivated":2,"attempts":4}}}` + "\n"
	skip := `{"type":"skip","benchmark":"mcfm","level":"PINFI","category":"cast","kind":"no-candidates","err":"no candidates"}` + "\n"
	f.Add([]byte(header + cell + skip))
	f.Add([]byte(header + skip + cell))
	f.Add([]byte(`{"type":"study","version":1,"n":4,"seed":7,"shard":"1/3"}` + "\n" + cell[:40]))
	f.Add([]byte(cell + header))
	f.Add([]byte(`{"type":"skip","benchmark":"x","level":"LLFI","category":"all"}`))
	f.Add([]byte{})
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
