package mc

import (
	"fmt"

	"hlfi/internal/machine"
	"hlfi/internal/x86"
)

// shape is how one operand is read or written, decoded once at compile
// time so the hot opcodes can access it inline in their step closure.
type shape uint8

const (
	shapeReg64     shape = iota // full-width general-purpose register
	shapeRegMasked              // register accessed at a narrower width
	shapeImm                    // immediate, canonical at the operand width
	shapeBaseDisp               // memory at [base + disp]
	shapeBaseIndex              // memory at [base + index*scale + disp]
	shapeIndex                  // memory at [index*scale + disp]
	shapeAbs                    // memory at [disp]
	shapeXmm                    // low lane of an XMM register
	shapeNone                   // no operand or a label: not readable
)

// operand is one decoded operand.
type operand struct {
	shape shape
	reg   x86.Reg // the register, or the base of a memory shape
	index x86.Reg
	xmm   x86.XReg
	// size is the access width in bytes.
	size  uint64
	scale uint64
	// val is the immediate or the displacement.
	val uint64
	// mask is the width mask of a register shape and zero for an
	// immediate, so value reads either without a branch.
	mask uint64
}

// decode classifies o as accessed at the given width.
func decode(o x86.Operand, size uint64) operand {
	switch o.Kind {
	case x86.OpReg:
		if size >= 8 {
			return operand{shape: shapeReg64, reg: o.Reg, size: size, mask: ^uint64(0)}
		}
		return operand{shape: shapeRegMasked, reg: o.Reg, size: size, mask: 1<<(8*size) - 1}
	case x86.OpImm:
		return operand{shape: shapeImm, size: size, val: machine.CanonicalVal(uint64(o.Imm), size)}
	case x86.OpXmm:
		return operand{shape: shapeXmm, xmm: o.Xmm, size: size}
	case x86.OpMem:
		return decodeAddr(o, size)
	}
	return operand{shape: shapeNone}
}

// decodeAddr classifies o's addressing fields as a memory shape,
// whatever its kind, as the simulator's effAddr reads them.
func decodeAddr(o x86.Operand, size uint64) operand {
	d := operand{reg: o.Base, index: o.Index, size: size, scale: uint64(o.Scale), val: uint64(o.Disp)}
	switch {
	case o.Base != x86.RegNone && o.Index != x86.RegNone:
		d.shape = shapeBaseIndex
	case o.Base != x86.RegNone:
		d.shape = shapeBaseDisp
	case o.Index != x86.RegNone:
		d.shape = shapeIndex
	default:
		d.shape = shapeAbs
	}
	return d
}

// source decodes an operand read at the given width. Like readOp, it
// rejects a kind that cannot be read, but at compile time, so the
// program falls back to the simulator.
func source(o x86.Operand, size uint64) (operand, error) {
	d := decode(o, size)
	if d.shape == shapeNone {
		return d, fmt.Errorf("bad source operand kind %d", o.Kind)
	}
	return d, nil
}

// dest decodes an integer destination, which writeIntDst accepts only
// as a register or memory.
func dest(o x86.Operand, size uint64) (operand, error) {
	d := decode(o, size)
	if !d.isReg() && !d.isMem() {
		return d, fmt.Errorf("bad int destination kind %d", o.Kind)
	}
	return d, nil
}

// isValue reports a register or immediate shape, read by value.
func (o operand) isValue() bool { return o.shape <= shapeImm }

// isReg reports a general-purpose register shape.
func (o operand) isReg() bool { return o.shape <= shapeRegMasked }

// isMem reports a memory shape, accessed through addr.
func (o operand) isMem() bool { return o.shape >= shapeBaseDisp && o.shape <= shapeAbs }

// value reads a register or immediate shape, canonical at its width.
func (o operand) value(e *Engine) uint64 { return e.regs[o.reg]&o.mask | o.val }

// addr computes a memory shape's effective address.
func (o operand) addr(e *Engine) uint64 {
	switch o.shape {
	case shapeBaseDisp:
		return o.val + e.regs[o.reg]
	case shapeBaseIndex:
		return o.val + e.regs[o.reg] + e.regs[o.index]*o.scale
	case shapeIndex:
		return o.val + e.regs[o.index]*o.scale
	}
	return o.val
}

// read is readOp for any source shape. The hot operand forms read
// inline in their step closure; read serves the rest.
func (o operand) read(e *Engine) (uint64, error) {
	switch {
	case o.isValue():
		return o.value(e), nil
	case o.shape == shapeXmm:
		return e.xmm[o.xmm][0], nil
	}
	return e.mem.Read(o.addr(e), o.size)
}

// write is writeIntDst for a destination accepted by dest.
func (o operand) write(e *Engine, v uint64) error {
	if o.isReg() {
		e.regs[o.reg] = v & o.mask
		return nil
	}
	return e.mem.Write(o.addr(e), o.size, v)
}

// alu applies one of the nine integer ALU ops, mirroring aluOp; shift
// is the sign-extension shift of the operand width.
func alu(op x86.Opcode, a, b uint64, shift uint) uint64 {
	switch op {
	case x86.ADD:
		return a + b
	case x86.SUB:
		return a - b
	case x86.IMUL:
		return uint64((int64(a<<shift) >> shift) * (int64(b<<shift) >> shift))
	case x86.AND:
		return a & b
	case x86.OR:
		return a | b
	case x86.XOR:
		return a ^ b
	case x86.SHL:
		return a << (b & 63)
	case x86.SHR:
		return a >> (b & 63)
	}
	return uint64(int64(a<<shift) >> shift >> (b & 63)) // SAR
}

// fop applies an SSE scalar arithmetic op.
func fop(op x86.Opcode, x, y float64) float64 {
	switch op {
	case x86.ADDSD:
		return x + y
	case x86.SUBSD:
		return x - y
	case x86.MULSD:
		return x * y
	}
	return x / y
}
