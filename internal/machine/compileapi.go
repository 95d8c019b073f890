package machine

import (
	"hlfi/internal/mem"
	"hlfi/internal/x86"
)

// This file is the read-only surface the pre-decoded dispatch engine
// (internal/compile/mc) builds on: the simulator's exact ALU, flag, and
// condition semantics, the activation predicates, and the snapshot
// state. The compiled engine re-executes the ISA itself but defers to
// these helpers for every semantic the interpreter defines, so the two
// can only diverge where the dispatch structure itself is wrong — which
// the differential oracle and fuzz target cover.

// AluOp applies an integer ALU operation at the given width, exactly as
// the simulator's dispatch does.
func AluOp(op x86.Opcode, a, b, size uint64) uint64 { return aluOp(op, a, b, size) }

// SubFlagsFor computes RFLAGS for CMP (a - b) at the given width.
func SubFlagsFor(a, b, size uint64) uint64 { return subFlags(a, b, size) }

// LogicFlagsFor computes RFLAGS for TEST.
func LogicFlagsFor(r, size uint64) uint64 { return logicFlags(r, size) }

// UcomisdFlagsFor computes RFLAGS for UCOMISD.
func UcomisdFlagsFor(x, y float64) uint64 { return ucomisdFlags(x, y) }

// CondHolds evaluates a Jcc/SETcc condition against a flags value.
func CondHolds(op x86.Opcode, flags uint64) bool { return condHolds(op, flags) }

// CanonicalVal zero-extends a value of the given width to the canonical
// register form.
func CanonicalVal(v, size uint64) uint64 { return canonical(v, size) }

// SignExtendVal sign-extends a canonical value of the given width.
func SignExtendVal(v, size uint64) int64 { return signExtend(v, size) }

// InjectWidthOf is the register width PINFI flips within for in.
func InjectWidthOf(in *x86.Instr) int { return injectWidth(in) }

// FlagMaskBits expands a flag mask into its architectural bit positions
// in x86.FlagBits order.
func FlagMaskBits(mask uint64) []int { return maskBits(mask) }

// InstrReadsReg reports whether in reads general-purpose register r
// (the activation predicate of checkActivation).
func InstrReadsReg(in *x86.Instr, r x86.Reg) bool { return readsReg(in, r) }

// InstrWritesReg reports whether in overwrites general-purpose
// register r.
func InstrWritesReg(in *x86.Instr, r x86.Reg) bool { return writesReg(in, r) }

// InstrReadsXmm reports whether in reads XMM register x.
func InstrReadsXmm(in *x86.Instr, x x86.XReg) bool { return readsXmm(in, x) }

// InstrWritesXmm reports whether in overwrites XMM register x.
func InstrWritesXmm(in *x86.Instr, x x86.XReg) bool { return writesXmm(in, x) }

// CloneState materializes a writable copy of the snapshot's
// architectural state: a copy-on-write memory clone plus registers,
// XMM registers, flags, and the instruction pointer. Safe to call
// concurrently on one snapshot, like NewFromSnapshot.
func (s *Snapshot) CloneState() (m *mem.Memory, regs [x86.NumRegs]uint64, xmm [x86.NumXRegs][2]uint64, flags uint64, rip int) {
	return s.mem.Clone(), s.regs, s.xmm, s.flags, s.rip
}

// FreezeState captures the given architectural state as a Snapshot, the
// inverse of CloneState: m is frozen copy-on-write, so the live memory
// copies a page before its next write, and the registers are copied.
// The pre-decoded engine's hang-cycle watch saves its windows with it
// and compares against them with MatchesRegs and MatchesMemory.
func FreezeState(m *mem.Memory, regs *[x86.NumRegs]uint64, xmm *[x86.NumXRegs][2]uint64, flags uint64, rip int) *Snapshot {
	return &Snapshot{mem: m.Snapshot(), regs: *regs, xmm: *xmm, flags: flags, rip: rip}
}

// Rip is the instruction index the snapshot was captured before: the
// position the pre-decoded engine's masking-convergence compare seeks.
func (s *Snapshot) Rip() int { return s.rip }

// MatchesRegs reports whether the given registers, XMM registers and
// flags are exactly the snapshot's: the cheap half of the pre-decoded
// engine's state compares, which a diverged attempt rarely gets past.
// Safe to call concurrently on one snapshot.
func (s *Snapshot) MatchesRegs(regs *[x86.NumRegs]uint64, xmm *[x86.NumXRegs][2]uint64, flags uint64) bool {
	return flags == s.flags && *regs == s.regs && *xmm == s.xmm
}

// MatchesMemory reports whether m is exactly the snapshot's memory: the
// memory half of the pre-decoded engine's state compares, the inverse
// of CloneState's memory clone. Safe to call concurrently on one
// snapshot.
func (s *Snapshot) MatchesMemory(m *mem.Memory) bool { return m.Equal(s.mem) }
