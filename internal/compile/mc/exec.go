package mc

import (
	"fmt"
	"math"

	"hlfi/internal/machine"
	"hlfi/internal/mem"
	"hlfi/internal/rt"
	"hlfi/internal/x86"
)

// compileExec pre-binds the simulator's dispatch arm for one
// instruction. The closure performs exactly what Machine.exec does for
// this instruction — same evaluation order, same faults — and advances
// e.rip itself. Each opcode has one arm. The operand forms codegen emits
// for the hot opcodes get a fused step that reads registers and
// immediates and computes effective addresses inline; every other form
// goes through the operand's read and write methods.
func compileExec(cp *Program, idx int, in *x86.Instr) (func(e *Engine) (bool, error), error) {
	size := in.OpSize()
	next := idx + 1
	shift := uint(64 - 8*size)
	switch in.Op {
	case x86.MOV:
		src, err := source(in.Src, size)
		if err != nil {
			return nil, err
		}
		dst, err := dest(in.Dst, size)
		if err != nil {
			return nil, err
		}
		switch {
		case dst.isReg() && src.isValue():
			d, mask := dst.reg, dst.mask
			return func(e *Engine) (bool, error) {
				e.regs[d] = src.value(e) & mask
				e.rip = next
				return false, nil
			}, nil
		case dst.isReg() && src.isMem():
			d, mask := dst.reg, dst.mask
			return func(e *Engine) (bool, error) {
				v, err := e.mem.Read(src.addr(e), size)
				if err != nil {
					return false, err
				}
				e.regs[d] = v & mask
				e.rip = next
				return false, nil
			}, nil
		case dst.isMem() && src.isValue():
			return func(e *Engine) (bool, error) {
				v := src.value(e)
				if err := e.mem.Write(dst.addr(e), size, v); err != nil {
					return false, err
				}
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			v, err := src.read(e)
			if err != nil {
				return false, err
			}
			if err := dst.write(e, v); err != nil {
				return false, err
			}
			e.rip = next
			return false, nil
		}, nil

	case x86.MOVZX, x86.MOVSX:
		src, err := source(in.Src, size)
		if err != nil {
			return nil, err
		}
		d, sh := in.Dst.Reg, shift
		if in.Op == x86.MOVZX {
			sh = 0 // the read is already zero-extended
		}
		switch {
		case src.isValue():
			return func(e *Engine) (bool, error) {
				e.regs[d] = uint64(int64(src.value(e)<<sh) >> sh)
				e.rip = next
				return false, nil
			}, nil
		case src.isMem():
			return func(e *Engine) (bool, error) {
				v, err := e.mem.Read(src.addr(e), size)
				if err != nil {
					return false, err
				}
				e.regs[d] = uint64(int64(v<<sh) >> sh)
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			v, err := src.read(e)
			if err != nil {
				return false, err
			}
			e.regs[d] = uint64(int64(v<<sh) >> sh)
			e.rip = next
			return false, nil
		}, nil

	case x86.LEA:
		src, d := decodeAddr(in.Src, size), in.Dst.Reg
		return func(e *Engine) (bool, error) {
			e.regs[d] = src.addr(e)
			e.rip = next
			return false, nil
		}, nil

	case x86.ADD, x86.SUB, x86.IMUL, x86.AND, x86.OR, x86.XOR,
		x86.SHL, x86.SHR, x86.SAR:
		dst, err := dest(in.Dst, size)
		if err != nil {
			return nil, err
		}
		src, err := source(in.Src, size)
		if err != nil {
			return nil, err
		}
		op := in.Op
		if dst.isReg() {
			d, mask := dst.reg, dst.mask
			switch {
			case src.isValue():
				return func(e *Engine) (bool, error) {
					e.regs[d] = alu(op, e.regs[d]&mask, src.value(e), shift) & mask
					e.rip = next
					return false, nil
				}, nil
			case src.isMem():
				return func(e *Engine) (bool, error) {
					b, err := e.mem.Read(src.addr(e), size)
					if err != nil {
						return false, err
					}
					e.regs[d] = alu(op, e.regs[d]&mask, b, shift) & mask
					e.rip = next
					return false, nil
				}, nil
			}
		}
		return func(e *Engine) (bool, error) {
			a, err := dst.read(e)
			if err != nil {
				return false, err
			}
			b, err := src.read(e)
			if err != nil {
				return false, err
			}
			if err := dst.write(e, alu(op, a, b, shift)); err != nil {
				return false, err
			}
			e.rip = next
			return false, nil
		}, nil

	case x86.NEG:
		dst, err := dest(in.Dst, size)
		if err != nil {
			return nil, err
		}
		return func(e *Engine) (bool, error) {
			a, err := dst.read(e)
			if err != nil {
				return false, err
			}
			if err := dst.write(e, -a); err != nil {
				return false, err
			}
			e.rip = next
			return false, nil
		}, nil

	case x86.CQO:
		return func(e *Engine) (bool, error) {
			e.regs[x86.RDX] = uint64(int64(e.regs[x86.RAX]) >> 63)
			e.rip = next
			return false, nil
		}, nil

	case x86.IDIV:
		src, err := source(in.Src, 8)
		if err != nil {
			return nil, err
		}
		return func(e *Engine) (bool, error) {
			b, err := src.read(e)
			if err != nil {
				return false, err
			}
			den := int64(b)
			num := int64(e.regs[x86.RAX])
			if e.regs[x86.RDX] != uint64(num>>63) {
				return false, &mem.Fault{Kind: mem.FaultDivideByZero}
			}
			if den == 0 || (num == math.MinInt64 && den == -1) {
				return false, &mem.Fault{Kind: mem.FaultDivideByZero}
			}
			e.regs[x86.RAX] = uint64(num / den)
			e.regs[x86.RDX] = uint64(num % den)
			e.rip = next
			return false, nil
		}, nil

	case x86.CMP:
		dst, err := source(in.Dst, size)
		if err != nil {
			return nil, err
		}
		src, err := source(in.Src, size)
		if err != nil {
			return nil, err
		}
		switch {
		case dst.isValue() && src.isValue():
			return func(e *Engine) (bool, error) {
				e.flags = machine.SubFlagsFor(dst.value(e), src.value(e), size)
				e.rip = next
				return false, nil
			}, nil
		case dst.isValue() && src.isMem():
			return func(e *Engine) (bool, error) {
				a := dst.value(e)
				b, err := e.mem.Read(src.addr(e), size)
				if err != nil {
					return false, err
				}
				e.flags = machine.SubFlagsFor(a, b, size)
				e.rip = next
				return false, nil
			}, nil
		case dst.isMem() && src.isValue():
			return func(e *Engine) (bool, error) {
				a, err := e.mem.Read(dst.addr(e), size)
				if err != nil {
					return false, err
				}
				e.flags = machine.SubFlagsFor(a, src.value(e), size)
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			a, err := dst.read(e)
			if err != nil {
				return false, err
			}
			b, err := src.read(e)
			if err != nil {
				return false, err
			}
			e.flags = machine.SubFlagsFor(a, b, size)
			e.rip = next
			return false, nil
		}, nil

	case x86.TEST:
		dst, err := source(in.Dst, size)
		if err != nil {
			return nil, err
		}
		src, err := source(in.Src, size)
		if err != nil {
			return nil, err
		}
		if dst.isValue() && src.isValue() {
			return func(e *Engine) (bool, error) {
				e.flags = machine.LogicFlagsFor(dst.value(e)&src.value(e), size)
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			a, err := dst.read(e)
			if err != nil {
				return false, err
			}
			b, err := src.read(e)
			if err != nil {
				return false, err
			}
			e.flags = machine.LogicFlagsFor(a&b, size)
			e.rip = next
			return false, nil
		}, nil

	case x86.SETE, x86.SETNE, x86.SETL, x86.SETLE, x86.SETG, x86.SETGE,
		x86.SETB, x86.SETBE, x86.SETA, x86.SETAE:
		op := in.Op
		reg := in.Dst.Reg
		return func(e *Engine) (bool, error) {
			var v uint64
			if machine.CondHolds(op, e.flags) {
				v = 1
			}
			e.regs[reg] = v
			e.rip = next
			return false, nil
		}, nil

	case x86.JMP:
		label := in.Dst.Label
		return func(e *Engine) (bool, error) {
			e.rip = label
			return false, nil
		}, nil

	case x86.JE, x86.JNE, x86.JL, x86.JLE, x86.JG, x86.JGE,
		x86.JB, x86.JBE, x86.JA, x86.JAE:
		op := in.Op
		label := in.Dst.Label
		return func(e *Engine) (bool, error) {
			if machine.CondHolds(op, e.flags) {
				e.rip = label
			} else {
				e.rip = next
			}
			return false, nil
		}, nil

	case x86.PUSH:
		src, err := source(in.Dst, 8)
		if err != nil {
			return nil, err
		}
		return func(e *Engine) (bool, error) {
			v, err := src.read(e)
			if err != nil {
				return false, err
			}
			if err := e.push(v); err != nil {
				return false, err
			}
			e.rip = next
			return false, nil
		}, nil

	case x86.POP:
		reg := in.Dst.Reg
		return func(e *Engine) (bool, error) {
			v, err := e.pop()
			if err != nil {
				return false, err
			}
			e.regs[reg] = v
			e.rip = next
			return false, nil
		}, nil

	case x86.CALL:
		if in.Builtin != "" {
			return compileBuiltinCall(in, next)
		}
		retAddr := mem.CodeBase + uint64(next)*mem.CodeStride
		label := in.Dst.Label
		return func(e *Engine) (bool, error) {
			if err := e.push(retAddr); err != nil {
				return false, err
			}
			e.rip = label
			return false, nil
		}, nil

	case x86.RET:
		nInstrs := len(cp.prog.Instrs)
		return func(e *Engine) (bool, error) {
			addr, err := e.pop()
			if err != nil {
				return false, err
			}
			if addr == e.cp.haltAddr {
				e.rip = nInstrs
				return true, nil
			}
			if addr < mem.CodeBase || (addr-mem.CodeBase)%mem.CodeStride != 0 {
				return false, &mem.Fault{Kind: mem.FaultBadCodeAddr, Addr: addr}
			}
			target := int((addr - mem.CodeBase) / mem.CodeStride)
			if target >= nInstrs {
				return false, &mem.Fault{Kind: mem.FaultBadCodeAddr, Addr: addr}
			}
			e.rip = target
			return false, nil
		}, nil

	case x86.MOVSD:
		// xmm<-xmm, xmm<-mem, mem<-xmm (low 64 bits).
		if in.Dst.Kind != x86.OpXmm {
			dst, s := decodeAddr(in.Dst, 8), in.Src.Xmm
			return func(e *Engine) (bool, error) {
				if err := e.mem.Write(dst.addr(e), 8, e.xmm[s][0]); err != nil {
					return false, err
				}
				e.rip = next
				return false, nil
			}, nil
		}
		src, err := source(in.Src, 8)
		if err != nil {
			return nil, err
		}
		d := in.Dst.Xmm
		switch {
		case src.shape == shapeXmm:
			s := src.xmm
			return func(e *Engine) (bool, error) {
				e.xmm[d][0] = e.xmm[s][0]
				e.rip = next
				return false, nil
			}, nil
		case src.isMem():
			return func(e *Engine) (bool, error) {
				v, err := e.mem.Read(src.addr(e), 8)
				if err != nil {
					return false, err
				}
				e.xmm[d][0] = v
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			e.xmm[d][0] = src.value(e) // a register or immediate: read never fails
			e.rip = next
			return false, nil
		}, nil

	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
		src, err := source(in.Src, 8)
		if err != nil {
			return nil, err
		}
		op, d := in.Op, in.Dst.Xmm
		switch {
		case src.shape == shapeXmm:
			s := src.xmm
			return func(e *Engine) (bool, error) {
				x, y := math.Float64frombits(e.xmm[d][0]), math.Float64frombits(e.xmm[s][0])
				e.xmm[d][0] = math.Float64bits(fop(op, x, y))
				e.rip = next
				return false, nil
			}, nil
		case src.isMem():
			return func(e *Engine) (bool, error) {
				b, err := e.mem.Read(src.addr(e), 8)
				if err != nil {
					return false, err
				}
				x, y := math.Float64frombits(e.xmm[d][0]), math.Float64frombits(b)
				e.xmm[d][0] = math.Float64bits(fop(op, x, y))
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			b, err := src.read(e)
			if err != nil {
				return false, err
			}
			x, y := math.Float64frombits(e.xmm[d][0]), math.Float64frombits(b)
			e.xmm[d][0] = math.Float64bits(fop(op, x, y))
			e.rip = next
			return false, nil
		}, nil

	case x86.XORPD:
		dst, src := in.Dst.Xmm, in.Src.Xmm
		if dst == src {
			return func(e *Engine) (bool, error) {
				e.xmm[dst] = [2]uint64{}
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			e.xmm[dst][0] ^= e.xmm[src][0]
			e.xmm[dst][1] ^= e.xmm[src][1]
			e.rip = next
			return false, nil
		}, nil

	case x86.UCOMISD:
		src, err := source(in.Src, 8)
		if err != nil {
			return nil, err
		}
		d := in.Dst.Xmm
		switch {
		case src.shape == shapeXmm:
			s := src.xmm
			return func(e *Engine) (bool, error) {
				x, y := math.Float64frombits(e.xmm[d][0]), math.Float64frombits(e.xmm[s][0])
				e.flags = machine.UcomisdFlagsFor(x, y)
				e.rip = next
				return false, nil
			}, nil
		case src.isMem():
			return func(e *Engine) (bool, error) {
				b, err := e.mem.Read(src.addr(e), 8)
				if err != nil {
					return false, err
				}
				x, y := math.Float64frombits(e.xmm[d][0]), math.Float64frombits(b)
				e.flags = machine.UcomisdFlagsFor(x, y)
				e.rip = next
				return false, nil
			}, nil
		}
		return func(e *Engine) (bool, error) {
			b, err := src.read(e)
			if err != nil {
				return false, err
			}
			x, y := math.Float64frombits(e.xmm[d][0]), math.Float64frombits(b)
			e.flags = machine.UcomisdFlagsFor(x, y)
			e.rip = next
			return false, nil
		}, nil

	case x86.CVTSI2SD:
		src, err := source(in.Src, size)
		if err != nil {
			return nil, err
		}
		d := in.Dst.Xmm
		return func(e *Engine) (bool, error) {
			v, err := src.read(e)
			if err != nil {
				return false, err
			}
			e.xmm[d][0] = math.Float64bits(float64(int64(v<<shift) >> shift))
			e.rip = next
			return false, nil
		}, nil

	case x86.CVTTSD2SI:
		src, err := source(in.Src, 8)
		if err != nil {
			return nil, err
		}
		d := in.Dst.Reg
		return func(e *Engine) (bool, error) {
			v, err := src.read(e)
			if err != nil {
				return false, err
			}
			f := math.Float64frombits(v)
			var iv int64
			if !math.IsNaN(f) {
				iv = int64(f)
			}
			e.regs[d] = machine.CanonicalVal(uint64(iv), size)
			e.rip = next
			return false, nil
		}, nil

	default:
		return nil, fmt.Errorf("opcode %s not compilable", in.Op)
	}
}

// compileBuiltinCall pre-binds a builtin call's SysV argument
// marshalling, mirroring callBuiltin.
func compileBuiltinCall(in *x86.Instr, next int) (func(e *Engine) (bool, error), error) {
	type argSrc struct {
		float bool
		reg   x86.Reg
		xreg  x86.XReg
	}
	srcs := make([]argSrc, len(in.ArgClasses))
	ii, fi := 0, 0
	for k := 0; k < len(in.ArgClasses); k++ {
		if in.ArgClasses[k] == 'd' {
			srcs[k] = argSrc{float: true, xreg: x86.FloatArgRegs[fi]}
			fi++
		} else {
			srcs[k] = argSrc{reg: x86.IntArgRegs[ii]}
			ii++
		}
	}
	name := in.Builtin
	retFloat := in.RetFloat
	return func(e *Engine) (bool, error) {
		args := make([]uint64, len(srcs))
		for k, s := range srcs {
			if s.float {
				args[k] = e.xmm[s.xreg][0]
			} else {
				args[k] = e.regs[s.reg]
			}
		}
		ret, err := rt.Call(e.env, name, args)
		if err != nil {
			return false, err
		}
		if retFloat {
			e.xmm[x86.XMM0][0] = ret
		} else {
			e.regs[x86.RAX] = ret
		}
		e.rip = next
		return false, nil
	}, nil
}
