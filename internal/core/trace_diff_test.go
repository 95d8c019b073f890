package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hlfi/internal/cli"
	"hlfi/internal/core"
	"hlfi/internal/obs/trace"
)

// TestTraceDifferentialOracle is the zero-cost gate for the campaign
// flight recorder: a study run with the span recorder armed must
// produce a byte-identical rendered report AND a byte-identical
// checkpoint file compared to the same study untraced, sequentially and
// under the parallel scheduler. The recorder consumes no randomness and
// writes nothing to the result path, so any divergence is an
// instrumentation bug.
func TestTraceDifferentialOracle(t *testing.T) {
	progs := buildSome(t, "quantumm")
	dir := t.TempDir()

	run := func(name string, tracer *trace.Recorder, parallel int) (string, []byte) {
		path := filepath.Join(dir, name+".ckpt")
		ckpt, err := core.NewCheckpointWriterShape(path, core.CheckpointShape{N: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.RunStudy(core.StudyConfig{
			Programs: progs, N: 8, Seed: 5,
			Parallel: parallel, Checkpoint: ckpt, Trace: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpt.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cli.RenderExperiment(&buf, st, "all")
		return buf.String(), raw
	}

	golden, goldenCkpt := run("untraced", nil, 1)

	tracer, err := trace.New(trace.Options{Head: trace.Header{N: 8, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	traced, tracedCkpt := run("traced", tracer, 1)
	if traced != golden {
		t.Errorf("report diverged with tracing armed (sequential):\n--- untraced ---\n%s\n--- traced ---\n%s", golden, traced)
	}
	if string(tracedCkpt) != string(goldenCkpt) {
		t.Error("checkpoint bytes diverged with tracing armed (sequential)")
	}

	// Parallel checkpoints append at completion time by design, so only
	// line order may differ from the sequential baseline.
	ptracer, err := trace.New(trace.Options{Head: trace.Header{N: 8, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ptraced, ptracedCkpt := run("traced-parallel", ptracer, 4)
	if ptraced != golden {
		t.Errorf("report diverged with tracing armed (parallel):\n--- untraced ---\n%s\n--- traced ---\n%s", golden, ptraced)
	}
	if got, want := sortedLines(ptracedCkpt), sortedLines(goldenCkpt); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("checkpoint content diverged with tracing armed (parallel):\n  want %q\n  got  %q", want, got)
	}

	// The recorders must have ridden along: a finished campaign root and
	// one cell span (with its scan and run phases) per campaign cell.
	for label, r := range map[string]*trace.Recorder{"sequential": tracer, "parallel": ptracer} {
		counts := map[string]int{}
		for _, s := range r.Snapshot() {
			counts[s.Kind]++
			if s.End == 0 {
				t.Errorf("%s: unfinished span %+v", label, s)
			}
		}
		cells := counts[trace.KindCell]
		if cells == 0 {
			t.Fatalf("%s: no cell spans recorded; kinds: %v", label, counts)
		}
		if counts[trace.KindCampaign] != 1 {
			t.Errorf("%s: campaign roots = %d, want 1", label, counts[trace.KindCampaign])
		}
		if counts[trace.KindScan] != cells || counts[trace.KindRun] != cells {
			t.Errorf("%s: scan=%d run=%d spans, want %d of each (one per cell)",
				label, counts[trace.KindScan], counts[trace.KindRun], cells)
		}
	}
}
