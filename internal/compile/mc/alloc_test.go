package mc_test

import (
	"fmt"
	"io"
	"testing"

	"hlfi/internal/codegen"
	"hlfi/internal/compile/mc"
	"hlfi/internal/interp"
	"hlfi/internal/machine"
	"hlfi/internal/minic"
)

// resumeAllocs lowers src, captures the simulator's first snapshot at
// or after instruction 60, and reports the allocations of restoring the
// pre-decoded engine from it and running to completion.
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
	asm, err := codegen.Lower(mod, prep.Layout, codegen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := mc.Compile(asm, prep.Layout.Image, prep.Layout.Base)
	if err != nil {
		t.Fatal(err)
	}
	var snap *machine.Snapshot
	g := machine.New(asm, prep.Layout.Image, prep.Layout.Base, io.Discard)
	g.SnapshotEvery = 60
	g.SnapshotSink = func(s *machine.Snapshot) {
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
		e := mc.NewFromSnapshot(cp, snap, io.Discard)
		if _, err := e.Resume(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompiledAllocs is the allocation guard of the pre-decoded engine:
// operands are decoded shapes, so executing an instruction allocates
// nothing and resuming a call-free loop costs a fixed count however
// long it runs.
func TestCompiledAllocs(t *testing.T) {
	loop := "int a[64]; double d[8]; int main(){ long s = 0; double x = 0.5; for (int i = 0; i < %d; i++) { a[i & 63] = i; s = s + a[(i * 7) & 63] * 3 - (i >> 1); d[i & 7] = x; x = x * 1.5 + d[(i + 3) & 7]; if (x > 1000.0) x = 0.25; } print_long(s); print_double(x); return 0; }"
	short, long := resumeAllocs(t, fmt.Sprintf(loop, 100)), resumeAllocs(t, fmt.Sprintf(loop, 5000))
	if short != long {
		t.Errorf("call-free resume: %v allocations for 100 iterations, %v for 5000; want a fixed count", short, long)
	}
}
