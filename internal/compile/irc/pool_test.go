package irc

import (
	"io"
	"testing"

	"hlfi/internal/interp"
	"hlfi/internal/minic"
)

// TestPushFrameRecyclesSlots: a call reuses the slot array a returned
// frame of the same function left behind, with its result and parameter
// slots reset as a fresh interpreter frame's are (convergence compares
// them) and its constant tail still the template.
func TestPushFrameRecyclesSlots(t *testing.T) {
	src := "long f(long x, long y){ if (y < 0) return f(x, y + 1); return x * 3 + y + 12345; } int main(){ long s = 0; for (int i = 0; i < 4; i++) s = f(s, i); print_long(s); return 0; }"
	mod, err := minic.Compile("pool", src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prep)
	if err != nil {
		t.Fatal(err)
	}
	fc := cp.fns[mod.Func("f")]
	if len(fc.consts) == 0 || fc.numValues == 0 {
		t.Fatalf("f has %d values and %d constants; the test needs both", fc.numValues, len(fc.consts))
	}

	r := NewRunner(cp, io.Discard)
	dirty := fc.newSlots()
	for i := range dirty[:fc.constBase] {
		dirty[i] = 0xdead
	}
	r.free[fc.id] = append(r.free[fc.id], dirty)
	caller := &frame{vals: []uint64{7, 9}}
	if err := r.pushFrame(fc, caller, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	got := r.stack[len(r.stack)-1].vals
	if &got[0] != &dirty[0] {
		t.Fatal("pushFrame allocated a slot array with one on the free list")
	}
	if len(r.free[fc.id]) != 0 {
		t.Fatalf("free list keeps %d arrays after the reuse", len(r.free[fc.id]))
	}
	want := fc.newSlots()
	want[fc.numValues], want[fc.numValues+1] = 9, 7
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %#x, want %#x (results and parameters reset, constants kept)", i, got[i], want[i])
		}
	}
}
