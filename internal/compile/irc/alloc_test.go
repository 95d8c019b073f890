package irc_test

import (
	"fmt"
	"io"
	"testing"

	"hlfi/internal/compile/irc"
	"hlfi/internal/interp"
	"hlfi/internal/minic"
)

// resumeAllocs compiles src, captures the interpreter's first snapshot
// at or after instruction 40, and reports the allocations of restoring
// the compiled engine from it and running to completion.
func resumeAllocs(t *testing.T, src string) float64 {
	t.Helper()
	mod, err := minic.Compile("alloc", src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := irc.Compile(prep)
	if err != nil {
		t.Fatal(err)
	}
	var snap *interp.Snapshot
	g := interp.NewRunner(prep, io.Discard)
	g.SnapshotEvery = 40
	g.SnapshotSink = func(s *interp.Snapshot) {
		if snap == nil {
			snap = s
		}
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	return testing.AllocsPerRun(20, func() {
		r := irc.NewRunnerFromSnapshot(cp, snap, io.Discard)
		if _, err := r.Resume(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompiledAllocs is the allocation guard of the compiled engine:
// operands are slots, so executing an instruction allocates nothing,
// and a call allocates only the callee's frame: its slot array comes
// from the runner's free list once a frame of that function returned.
func TestCompiledAllocs(t *testing.T) {
	loop := "int a[64]; int main(){ long s = 0; for (int i = 0; i < %d; i++) { a[i & 63] = i; s = s + a[(i * 7) & 63] * 3 - (i >> 1); } print_long(s); return 0; }"
	short, long := resumeAllocs(t, fmt.Sprintf(loop, 100)), resumeAllocs(t, fmt.Sprintf(loop, 5000))
	if short != long {
		t.Errorf("call-free resume: %v allocations for 100 iterations, %v for 5000; want a fixed count", short, long)
	}

	// f is recursive so the IR inliner leaves the call in place.
	calls := "long f(long x, long y){ if (y < 0) return f(x, y + 1); return x * 3 + y; } int main(){ long s = 0; for (int i = 0; i < %d; i++) s = f(s, i); print_long(s); return 0; }"
	short, long = resumeAllocs(t, fmt.Sprintf(calls, 100)), resumeAllocs(t, fmt.Sprintf(calls, 1100))
	if perCall := (long - short) / 1000; perCall != 1 {
		t.Errorf("%v allocations per call, want 1 (the frame; its slot array is recycled)", perCall)
	}
}
