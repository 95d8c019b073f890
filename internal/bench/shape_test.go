package bench

import (
	"bytes"
	"testing"

	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/llfi"
	"hlfi/internal/machine"
	"hlfi/internal/pinfi"
)

// TestTableIVShape asserts the qualitative RQ1 findings of the paper's
// Table IV on our benchmarks:
//
//   - both tools see similar numbers of compare instructions (compare+
//     branch pairs map 1:1 between the levels);
//   - PINFI sees more arithmetic instructions than LLFI (address
//     computation is explicit arithmetic at the assembly level but lives
//     in getelementptr at the IR level);
//   - LLFI sees far more cast instructions than PINFI (the IR is strictly
//     typed; almost all casts lower to plain data movement).
func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all six benchmarks")
	}
	arithGreater := 0
	total := 0
	for _, b := range All() {
		p, err := Build(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		var o1, o2 bytes.Buffer
		m := machine.New(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, &o1)
		asmProf := make([]uint64, len(p.Asm.Instrs))
		m.Profile = asmProf
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		r := interp.NewRunner(p.Prep, &o2)
		irProf := make([]uint64, p.Prep.SeqTotal)
		r.Profile = irProf
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		count := func(level fault.Level, cat fault.Category) uint64 {
			if level == fault.LevelIR {
				return fault.Golden{Profile: irProf}.DynCount(llfi.Candidates(p.Prep, cat))
			}
			return fault.Golden{Profile: asmProf}.DynCount(pinfi.Candidates(p.Asm, cat))
		}

		llCmp := count(fault.LevelIR, fault.CatCmp)
		pfCmp := count(fault.LevelASM, fault.CatCmp)
		if ratio := float64(llCmp) / float64(pfCmp); ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: cmp counts diverge: LLFI=%d PINFI=%d", b.Name, llCmp, pfCmp)
		}

		// "LLFI has fewer instructions to inject than PINFI for most
		// programs" (RQ1): require it for a clear majority, and never a
		// large inversion.
		llArith := count(fault.LevelIR, fault.CatArith)
		pfArith := count(fault.LevelASM, fault.CatArith)
		total++
		if pfArith > llArith {
			arithGreater++
		}
		if float64(pfArith) < 0.9*float64(llArith) {
			t.Errorf("%s: PINFI arithmetic (%d) far below LLFI (%d)", b.Name, pfArith, llArith)
		}

		llCast := count(fault.LevelIR, fault.CatCast)
		pfCast := count(fault.LevelASM, fault.CatCast)
		if llCast <= 2*pfCast {
			t.Errorf("%s: LLFI casts (%d) should far exceed PINFI converts (%d)",
				b.Name, llCast, pfCast)
		}

		// Totals are within a factor of ~2.2 of each other: the levels see
		// comparable instruction streams of the same program.
		llAll := count(fault.LevelIR, fault.CatAll)
		pfAll := count(fault.LevelASM, fault.CatAll)
		ratio := float64(llAll) / float64(pfAll)
		if ratio < 0.45 || ratio > 2.2 {
			t.Errorf("%s: all-category counts implausible: LLFI=%d PINFI=%d", b.Name, llAll, pfAll)
		}
		t.Logf("%-10s all=%d/%d arith=%d/%d cast=%d/%d cmp=%d/%d load=%d/%d (LLFI/PINFI)",
			b.Name, llAll, pfAll, llArith, pfArith, llCast, pfCast, llCmp, pfCmp,
			count(fault.LevelIR, fault.CatLoad), count(fault.LevelASM, fault.CatLoad))
	}
	if arithGreater*3 < total*2 {
		t.Errorf("PINFI arithmetic exceeded LLFI in only %d/%d benchmarks", arithGreater, total)
	}
}
