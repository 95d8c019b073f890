package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/bench"
	"hlfi/internal/cli"
	"hlfi/internal/core"
)

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"worker needs join", []string{"-worker"}, "-join"},
		{"join without worker", []string{"-join", "http://x"}, "-worker"},
		{"unknown experiment", []string{"-experiment", "nope"}, "unknown experiment"},
		{"experiment without campaign", []string{"-experiment", "table2"}, "runs no campaign"},
		{"negative spawn", []string{"-spawn-workers", "-1"}, "spawn-workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestJitterSeedFor(t *testing.T) {
	if jitterSeedFor("w1") == jitterSeedFor("w2") {
		t.Fatal("distinct worker names should get distinct jitter seeds")
	}
	if jitterSeedFor("w1") != jitterSeedFor("w1") {
		t.Fatal("jitter seed must be stable for a name")
	}
	if jitterSeedFor("") == 0 {
		t.Fatal("jitter seed must never be zero")
	}
}

// TestFiserveFleetMatchesSingleProcess is the end-to-end differential
// oracle of the binary: an in-process coordinator with two in-process
// workers must render the report byte-identical to the single-process
// study, and a coordinator restarted on the finished checkpoint must
// re-render it from durable state alone (no workers at all).
func TestFiserveFleetMatchesSingleProcess(t *testing.T) {
	prog, err := bench.Build("quantumm")
	if err != nil {
		t.Fatal(err)
	}
	goldenSt, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var goldenBuf bytes.Buffer
	cli.RenderExperiment(&goldenBuf, goldenSt, "all")
	golden := goldenBuf.String()

	ckpt := filepath.Join(t.TempDir(), "fleet.jsonl")
	coordArgs := []string{
		"-listen", "127.0.0.1:0", "-once", "-q",
		"-benchmarks", "quantumm", "-n", "6", "-seed", "3",
		"-experiment", "all", "-checkpoint", ckpt,
		"-lease-ttl", "2s", "-retry-after", "20ms",
	}

	out := captureStdout(t, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		addrCh := make(chan string, 1)
		coordErr := make(chan error, 1)
		go func() {
			coordErr <- runCtx(ctx, coordArgs, func(addr string) { addrCh <- addr })
		}()
		var addr string
		select {
		case addr = <-addrCh:
		case err := <-coordErr:
			return err
		}
		var wg sync.WaitGroup
		for _, name := range []string{"wA", "wB"} {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if err := runCtx(ctx, []string{"-worker", "-join", "http://" + addr, "-name", name, "-q"}, nil); err != nil {
					t.Errorf("worker %s: %v", name, err)
				}
			}(name)
		}
		err := <-coordErr
		wg.Wait()
		return err
	})
	if out != golden {
		t.Errorf("fleet report differs from single-process run:\n--- golden ---\n%s\n--- fleet ---\n%s", golden, out)
	}

	// Restart on the finished checkpoint: every cell restores from the
	// durable record, the study converges instantly with no workers, and
	// the rendered report is identical again.
	out2 := captureStdout(t, func() error { return run(coordArgs) })
	if out2 != golden {
		t.Errorf("resumed coordinator report differs:\n--- golden ---\n%s\n--- resumed ---\n%s", golden, out2)
	}
}

// TestFiserveResumesReplayOffHeader restarts a coordinator on a
// finished checkpoint whose header records replay "off", the policy
// workers ran before they armed snapshot replay. Replay is provenance,
// not identity, so the checkpoint resumes unchanged: every cell
// restores, the report renders as before and the header is kept.
func TestFiserveResumesReplayOffHeader(t *testing.T) {
	prog, err := bench.Build("quantumm")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fleet.jsonl")
	w, err := core.NewCheckpointWriterShape(ckpt, core.CheckpointShape{N: 4, Seed: 2, Replay: "off", Compiled: "on", Adaptive: "off"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{prog}, N: 4, Seed: 2, Checkpoint: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	cli.RenderExperiment(&golden, st, "all")
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(before), "\n")
	if !strings.Contains(header, `"replay":"off"`) {
		t.Fatalf("header %s does not record replay off", header)
	}

	out := captureStdout(t, func() error {
		return run([]string{"-listen", "127.0.0.1:0", "-once", "-q",
			"-benchmarks", "quantumm", "-n", "4", "-seed", "2",
			"-experiment", "all", "-checkpoint", ckpt, "-retry-after", "20ms"})
	})
	if out != golden.String() {
		t.Errorf("resumed report differs:\n--- golden ---\n%s\n--- resumed ---\n%s", golden.String(), out)
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("resume changed the checkpoint:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}

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
