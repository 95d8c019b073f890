package core_test

import (
	"math/rand"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/ir"
	"hlfi/internal/llfi"
	"hlfi/internal/machine"
	"hlfi/internal/pinfi"
)

// TestCompareFaultsAgreeAcrossLevels exploits the 1:1 compare mapping:
// flipping the k-th dynamic execution of the loop compare at the IR level
// (the i1 result) and at the assembly level (a dependent flag bit) invert
// the same branch decision, so the corrupted outputs must be identical
// for every k. This is the deepest cross-level alignment check in the
// suite: it validates that both injectors see the *same* program at the
// same dynamic instant.
func TestCompareFaultsAgreeAcrossLevels(t *testing.T) {
	src := `
int N = 12;
int main() {
    long acc = 0;
    for (int i = 0; i < N; i++) {
        acc = acc * 7 + i;
        print_long(acc);
        print_str(",");
    }
    print_str("\n");
    return 0;
}
`
	prog, err := core.BuildProgram("xlevel", src)
	if err != nil {
		t.Fatal(err)
	}

	// IR side: the loop's single icmp.
	var icmp *ir.Instr
	for _, f := range prog.Prep.Mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpICmp {
					if icmp != nil {
						t.Fatal("program must have exactly one compare")
					}
					icmp = in
				}
			}
		}
	}
	if icmp == nil {
		t.Fatal("no compare found")
	}
	irCands := make([]bool, prog.Prep.SeqTotal)
	irCands[icmp.Seq] = true
	irGolden := fault.Golden{Output: prog.GoldenOutput, Exit: prog.GoldenExit,
		Instrs: prog.IRInstrs, Profile: prog.IRProfile}
	irInj, err := llfi.View(prog.Prep, irGolden, fault.CatCmp, irCands)
	if err != nil {
		t.Fatal(err)
	}

	// ASM side: the fused CMP (flag setter before a Jcc) — there must be
	// exactly one, matching the lone IR compare.
	dep := machine.DependentFlagMasks(prog.Asm)
	nCmp := 0
	for i := range prog.Asm.Instrs {
		if dep[i] != 0 {
			nCmp++
		}
	}
	if nCmp != 1 {
		t.Fatalf("expected exactly one fused compare at the assembly level, found %d", nCmp)
	}
	asmInj, err := pinfi.New(prog.Asm, prog.Prep.Layout.Image, prog.Prep.Layout.Base, fault.CatCmp)
	if err != nil {
		t.Fatal(err)
	}

	if irInj.DynTotal != asmInj.DynTotal {
		t.Fatalf("dynamic compare counts differ: IR %d vs ASM %d", irInj.DynTotal, asmInj.DynTotal)
	}

	for k := uint64(0); k < irInj.DynTotal; k++ {
		irRes := irInj.InjectAt(k, rand.New(rand.NewSource(int64(k))))
		asmRes := asmInj.InjectAt(k, rand.New(rand.NewSource(int64(k))))
		if string(irRes.Output) != string(asmRes.Output) {
			t.Fatalf("instance %d: corrupted outputs diverge\nIR : %q (%v)\nASM: %q (%v)",
				k, irRes.Output, irRes.Outcome, asmRes.Output, asmRes.Outcome)
		}
		if irRes.Outcome != asmRes.Outcome {
			t.Fatalf("instance %d: outcomes diverge: %v vs %v", k, irRes.Outcome, asmRes.Outcome)
		}
	}
}
