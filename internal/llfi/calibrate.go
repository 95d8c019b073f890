package llfi

import (
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
)

// Calibration implements the three discrepancy-resolution heuristics the
// paper proposes as future work in §VII. Each predicts, from the IR
// alone, how the backend will lower a construct, and adjusts the
// injection-candidate sets accordingly:
//
//  1. GEPAsArith — "treat a getelementptr instruction as an arithmetic
//     instruction" when it will lower to explicit address arithmetic
//     rather than folding into a memory operand's addressing mode.
//  2. SkipAddressCasts — exclude conversion casts that only feed address
//     computation (their corruption behaves like a pointer fault, which
//     assembly-level cast injection never produces).
//  3. AsmMappedLoadsOnly — "inject into only those instructions that have
//     a corresponding analogue at the assembly code level": exclude
//     loads that will fold into an ALU instruction's memory operand.
type Calibration struct {
	GEPAsArith         bool
	SkipAddressCasts   bool
	AsmMappedLoadsOnly bool
}

// FullCalibration enables all three heuristics.
func FullCalibration() Calibration {
	return Calibration{GEPAsArith: true, SkipAddressCasts: true, AsmMappedLoadsOnly: true}
}

// CandidatesCalibrated is Candidates with the §VII heuristics applied.
func CandidatesCalibrated(p *interp.Prepared, cat fault.Category, cal Calibration) []bool {
	out := make([]bool, p.SeqTotal)
	for _, f := range p.Mod.Funcs {
		uses := ir.ComputeUses(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() || uses.NumUses(in) == 0 {
					continue
				}
				if inCategoryCalibrated(in, cat, cal, uses, b) {
					out[in.Seq] = true
				}
			}
		}
	}
	return out
}

func inCategoryCalibrated(in *ir.Instr, cat fault.Category, cal Calibration, uses *ir.UseInfo, b *ir.Block) bool {
	switch cat {
	case fault.CatAll:
		// The calibrated 'all' set drops IR instructions with no assembly
		// counterpart: foldable GEPs and foldable loads.
		if cal.GEPAsArith && in.Op == ir.OpGEP && predictGEPFolds(in, uses, b) {
			return false
		}
		if cal.AsmMappedLoadsOnly && in.Op == ir.OpLoad && predictLoadFolds(in, uses, b) {
			return false
		}
		if cal.SkipAddressCasts && in.Op.IsConvCast() && feedsOnlyAddresses(in, uses) {
			return false
		}
		return true
	case fault.CatArith:
		if in.Op.IsArith() {
			return true
		}
		// §VII-1: unfoldable GEPs become add/mul sequences at the
		// assembly level; count them as arithmetic.
		return cal.GEPAsArith && in.Op == ir.OpGEP && !predictGEPFolds(in, uses, b)
	case fault.CatCast:
		if !in.Op.IsConvCast() {
			return false
		}
		if cal.SkipAddressCasts && feedsOnlyAddresses(in, uses) {
			return false
		}
		return true
	case fault.CatCmp:
		return in.Op.IsCmp()
	case fault.CatLoad:
		if in.Op != ir.OpLoad {
			return false
		}
		if cal.AsmMappedLoadsOnly && predictLoadFolds(in, uses, b) {
			return false
		}
		return true
	default:
		return false
	}
}

// predictGEPFolds mirrors (without importing) the backend's folding rule:
// a GEP disappears into addressing modes when every use is a same-block
// load/store and the address fits [base + index*scale + disp].
func predictGEPFolds(in *ir.Instr, uses *ir.UseInfo, b *ir.Block) bool {
	us := uses.Uses(in)
	if len(us) == 0 {
		return false
	}
	for _, u := range us {
		switch u.Op {
		case ir.OpLoad:
			if u.Parent != b {
				return false
			}
		case ir.OpStore:
			if u.Parent != b || u.Args[1] != ir.Value(in) || u.Args[0] == ir.Value(in) {
				return false
			}
		default:
			return false
		}
	}
	// Addressability: constant struct steps plus at most one variable
	// index with a hardware scale.
	cur := in.Args[0].Type().Elem
	varIndexes := 0
	for i, idx := range in.Args[1:] {
		var stride uint64
		if i == 0 {
			stride = cur.Size()
		} else {
			switch cur.Kind {
			case ir.KindArray:
				cur = cur.Elem
				stride = cur.Size()
			case ir.KindStruct:
				cst, ok := idx.(*ir.Const)
				if !ok {
					return false
				}
				cur = cur.Fields[int(cst.Int())]
				continue
			default:
				return false
			}
		}
		if _, isConst := idx.(*ir.Const); isConst {
			continue
		}
		varIndexes++
		if varIndexes > 1 {
			return false
		}
		switch stride {
		case 1, 2, 4, 8:
		default:
			return false
		}
	}
	return true
}

// predictLoadFolds mirrors the backend's load-operand folding rule: a
// single-use load consumed by a same-block ALU/compare/conversion folds
// into that instruction's memory operand.
func predictLoadFolds(in *ir.Instr, uses *ir.UseInfo, b *ir.Block) bool {
	us := uses.Uses(in)
	if len(us) != 1 || us[0].Parent != b {
		return false
	}
	switch us[0].Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpICmp, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFCmp,
		ir.OpSExt, ir.OpZExt, ir.OpSIToFP:
		return true
	default:
		return false
	}
}

// feedsOnlyAddresses reports whether every transitive use of the value is
// address computation (GEP indices or pointer-typed casts) — the casts
// the paper observed crashing like pointer faults.
func feedsOnlyAddresses(in *ir.Instr, uses *ir.UseInfo) bool {
	seen := make(map[*ir.Instr]bool)
	var walk func(v *ir.Instr) bool
	walk = func(v *ir.Instr) bool {
		if seen[v] {
			return true
		}
		seen[v] = true
		us := uses.Uses(v)
		if len(us) == 0 {
			return false
		}
		for _, u := range us {
			switch {
			case u.Op == ir.OpGEP && u.Args[0] != ir.Value(v):
				// used as an index: address computation
			case u.Op == ir.OpIntToPtr:
				// becomes a pointer outright
			case u.Op.IsIntArith() || u.Op.IsConvCast():
				if !walk(u) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return walk(in)
}
