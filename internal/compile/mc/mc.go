// Package mc pre-decodes lowered x86-like programs into dense dispatch
// tables of pre-bound Go closures — the machine-level analogue of
// internal/compile/irc. Each operand is decoded once into a shape
// (64-bit register, masked register, immediate, base+disp,
// base+index*scale+disp, index*scale+disp, absolute, or XMM; see
// shape.go). For the operand forms codegen emits, the hot opcodes read
// registers and immediates and compute effective addresses inline in
// their one step closure; other forms use the operand's read and write
// methods. Builtin argument marshalling and the activation predicates
// are resolved at compile time too; the per-instruction hot path is one
// closure call plus the injection bookkeeping.
//
// The engine is byte-identical to machine.Machine: same outcomes, same
// error values and strings, same RNG consumption, same executed counts.
// Golden runs, profiling, snapshot capture, and traced attempts stay on
// the simulator; the compiled engine exists only for untraced injection
// attempts.
package mc

import (
	"fmt"

	"hlfi/internal/machine"
	"hlfi/internal/mem"
	"hlfi/internal/x86"
)

// step is one pre-decoded instruction.
type step struct {
	// exec performs the instruction and advances e.rip. done=true means
	// main returned to the halt address.
	exec func(e *Engine) (bool, error)
	// fire performs the injection bit flip for this instruction shape;
	// nil when the shape is not corruptible (mirrors fireInjection's
	// silent no-op arms).
	fire func(e *Engine, inj *machine.Injection, idx int)

	// Activation masks, pre-computed from the simulator's predicates.
	readsRegs  uint32
	writesRegs uint32
	readsXmms  uint32
	writesXmms uint32
	condMask   uint64
	condOrSet  bool
	flagSetter bool
}

// Program is a pre-decoded program, immutable and shareable across any
// number of concurrent Engines.
type Program struct {
	prog        *x86.Program
	steps       []step
	layoutImage []byte
	layoutBase  uint64
	haltAddr    uint64
}

// Asm returns the underlying lowered program.
func (p *Program) Asm() *x86.Program { return p.prog }

// Compile pre-decodes a lowered program. It fails (rather than degrade)
// on any opcode outside the simulator's dispatch; callers fall back to
// the simulator.
func Compile(p *x86.Program, layoutImage []byte, layoutBase uint64) (*Program, error) {
	cp := &Program{
		prog:        p,
		steps:       make([]step, len(p.Instrs)),
		layoutImage: layoutImage,
		layoutBase:  layoutBase,
		haltAddr:    mem.CodeBase + uint64(len(p.Instrs))*mem.CodeStride,
	}
	depFlags := machine.DependentFlagMasks(p)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		exec, err := compileExec(cp, i, in)
		if err != nil {
			return nil, fmt.Errorf("mc: instr %d: %w", i, err)
		}
		st := &cp.steps[i]
		st.exec = exec
		st.fire = compileFire(in, depFlags[i])
		for r := x86.Reg(1); r < x86.NumRegs; r++ {
			if machine.InstrReadsReg(in, r) {
				st.readsRegs |= 1 << uint(r)
			}
			if machine.InstrWritesReg(in, r) {
				st.writesRegs |= 1 << uint(r)
			}
		}
		for x := x86.XReg(1); x < x86.NumXRegs; x++ {
			if machine.InstrReadsXmm(in, x) {
				st.readsXmms |= 1 << uint(x)
			}
			if machine.InstrWritesXmm(in, x) {
				st.writesXmms |= 1 << uint(x)
			}
		}
		st.condMask = machine.CondFlagMask(in.Op)
		st.condOrSet = in.Op.IsCondJump() || in.Op.IsSet()
		st.flagSetter = in.Op.IsFlagSetter()
	}
	return cp, nil
}

// compileFire pre-binds the injection flip for one instruction shape,
// mirroring Machine.fireInjection arm for arm (including the silent
// no-op when a flag setter has no dependent jump).
func compileFire(in *x86.Instr, depMask uint64) func(e *Engine, inj *machine.Injection, idx int) {
	switch {
	case in.Op.IsFlagSetter():
		if depMask == 0 {
			return nil // not a candidate shape; selector should prevent this
		}
		bits := machine.FlagMaskBits(depMask)
		return func(e *Engine, inj *machine.Injection, idx int) {
			bit := bits[inj.Rng.Intn(len(bits))]
			inj.OrigVal = e.flags
			e.flags ^= 1 << uint(bit)
			inj.FaultyVal = e.flags
			inj.Bit = bit
			inj.TargetDesc = "rflags"
			e.watch = watchFlags
			e.watchMask = 1 << uint(bit)
			inj.Happened = true
			inj.InstrIdx = idx
		}

	case in.Dst.Kind == x86.OpXmm:
		xr := in.Dst.Xmm
		desc := xr.String()
		return func(e *Engine, inj *machine.Injection, idx int) {
			bit := inj.Rng.Intn(64)
			inj.OrigVal = e.xmm[xr][0]
			e.xmm[xr][0] ^= 1 << uint(bit)
			inj.FaultyVal = e.xmm[xr][0]
			inj.Bit = bit
			inj.TargetDesc = desc
			e.watch = watchXmm
			e.watchXmm = xr
			inj.Happened = true
			inj.InstrIdx = idx
		}

	case in.Dst.Kind == x86.OpReg:
		reg := in.Dst.Reg
		desc := reg.String()
		width := machine.InjectWidthOf(in)
		return func(e *Engine, inj *machine.Injection, idx int) {
			bit := inj.Rng.Intn(width)
			inj.OrigVal = e.regs[reg]
			e.regs[reg] ^= 1 << uint(bit)
			inj.FaultyVal = e.regs[reg]
			inj.Bit = bit
			inj.TargetDesc = desc
			e.watch = watchReg
			e.watchReg = reg
			inj.Happened = true
			inj.InstrIdx = idx
		}

	default:
		return nil
	}
}
