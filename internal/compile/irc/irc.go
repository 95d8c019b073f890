// Package irc compiles prepared IR modules into flat per-block arrays
// of pre-bound Go closures — the one-time "compile" step that replaces
// the interpreter's per-instruction dispatch for injection attempts.
//
// Design choice (see docs/compiled.md): each basic block becomes a flat
// []step of closures driven by a per-frame pc, rather than a bytecode
// array. Go has no computed goto, so bytecode would still pay a dispatch
// switch per instruction; closures move all of that cost to compile
// time. Every operand is a slot index into one frame array: each
// function has a single slot layout — instruction results, then
// parameters, then its interned constants and global addresses — so a
// step reads fr.vals[a] and fr.vals[b] inline whatever the operand
// kind, with no per-operand loader call. The hot instructions
// (integer, logic and float arithmetic, icmp, casts, load, store, GEP,
// branches) are each one closure that computes and retires inline;
// width canonicalization, sign extension, constant GEP offsets
// and CFG edges with their phi bundles are all pre-bound. The engine is
// byte-identical to interp.Runner: same outcomes, same error strings,
// same RNG consumption, same executed counts. Instrumentation the
// interpreter supports but attempts never use (taint tracing, snapshot
// capture) is not compiled in at all — golden runs, profiling, and
// traced attempts stay on the interpreter.
//
// Any construct the compiler cannot lower (e.g. function-valued
// operands, a call whose argument count differs from its callee's
// parameter count) fails Compile; callers fall back to the interpreter
// for the whole program, which is byte-identical by definition.
package irc

import (
	"fmt"
	"math"

	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/mem"
	"hlfi/internal/rt"
)

// divideFault is the shared divide-error value. The interpreter
// allocates a fresh fault per occurrence; only the rendered string is
// observable, and it is identical.
var divideFault = &mem.Fault{Kind: mem.FaultDivideByZero}

// step is one compiled non-phi instruction.
type step struct {
	exec func(r *Runner, fr *frame) error
	// watchArgs are the instruction-valued operands, in operand order,
	// for the activation scan (only instruction results can be watched).
	watchArgs []*ir.Instr
	// fin is where a value-producing OpCall retires when its callee
	// returns; nil for a void call.
	fin *dest
}

// dest is where a value-producing instruction retires: its result slot
// plus what the injection arm needs to corrupt it.
type dest struct {
	in    *ir.Instr
	id    int
	seq   int
	width int
	mask  uint64
}

func newDest(in *ir.Instr) *dest {
	return &dest{in: in, id: in.ID, seq: in.Seq, width: valueBits(in.Ty), mask: canonMask(in.Ty)}
}

// blockCode is one compiled basic block: the non-phi instructions as
// steps; phis live on the incoming edges.
type blockCode struct {
	blk   *ir.Block
	nPhi  int
	steps []step
}

// phiStep is one phi of an edge's bundle, with the incoming value slot
// for that edge pre-selected.
type phiStep struct {
	d *dest
	// actArgs are the instruction-valued incoming args on this edge, in
	// operand order (the per-edge activation scan).
	actArgs []*ir.Instr
	src     int
	err     error // pre-built "no incoming edge" error, when applicable
}

// edgePlan is one CFG edge: the target block plus its phi bundle for
// this predecessor.
type edgePlan struct {
	to   *blockCode
	phis []phiStep
}

// fnCode is one compiled function. Its frames share one slot layout:
// [0, numValues) instruction results by ID, [numValues, constBase)
// parameters, and [constBase, constBase+len(consts)) the interned
// constants and global addresses, which consts is the template for.
// id is the function's dense index in its Program, which keys a
// runner's free list of slot arrays.
type fnCode struct {
	fn        *ir.Function
	id        int
	frameSize uint64
	mapFrame  bool
	numValues int
	constBase int
	consts    []uint64
	blocks    map[*ir.Block]*blockCode
	entry     *edgePlan
}

// newSlots returns a frame slot array with the constant tail filled in.
func (fc *fnCode) newSlots() []uint64 {
	vals := make([]uint64, fc.constBase+len(fc.consts))
	copy(vals[fc.constBase:], fc.consts)
	return vals
}

// Program is a compiled module, immutable and shareable across any
// number of concurrent Runners.
type Program struct {
	prep *interp.Prepared
	fns  map[*ir.Function]*fnCode
	main *fnCode
}

// Prepared returns the underlying prepared module.
func (p *Program) Prepared() *interp.Prepared { return p.prep }

type edgeKey struct{ from, to *ir.Block }

type compiler struct {
	prep  *interp.Prepared
	fns   map[*ir.Function]*fnCode
	edges map[edgeKey]*edgePlan
	// fc and interned are the function being compiled and its constant
	// slots by value.
	fc       *fnCode
	interned map[uint64]int
}

// Compile lowers a prepared module. It fails (rather than degrade) on
// any construct outside the interpreter's executable subset; callers
// are expected to fall back to the interpreter.
func Compile(p *interp.Prepared) (*Program, error) {
	c := &compiler{
		prep:  p,
		fns:   make(map[*ir.Function]*fnCode, len(p.Mod.Funcs)),
		edges: make(map[edgeKey]*edgePlan),
	}
	// Pass 1: allocate fnCode and blockCode shells so call and branch
	// compilation can reference targets in any order.
	for _, f := range p.Mod.Funcs {
		if len(f.Blocks) == 0 {
			continue // declarations are handled at the call site
		}
		fc := &fnCode{
			fn:        f,
			id:        len(c.fns),
			frameSize: p.FrameSize(f),
			mapFrame:  p.FrameSize(f) > interp.MinFrameBytes,
			numValues: f.NumValues(),
			constBase: f.NumValues() + len(f.Params),
			blocks:    make(map[*ir.Block]*blockCode, len(f.Blocks)),
		}
		for _, b := range f.Blocks {
			nPhi := 0
			for nPhi < len(b.Instrs) && b.Instrs[nPhi].Op == ir.OpPhi {
				nPhi++
			}
			fc.blocks[b] = &blockCode{blk: b, nPhi: nPhi}
		}
		c.fns[f] = fc
	}
	// Pass 2: compile bodies.
	for _, f := range p.Mod.Funcs {
		fc := c.fns[f]
		if fc == nil {
			continue
		}
		c.fc, c.interned = fc, make(map[uint64]int)
		for _, b := range f.Blocks {
			if err := c.compileBlock(fc, b); err != nil {
				return nil, fmt.Errorf("irc: @%s: %w", f.Name, err)
			}
		}
		entry, err := c.edge(nil, f.Entry(), fc)
		if err != nil {
			return nil, fmt.Errorf("irc: @%s: %w", f.Name, err)
		}
		fc.entry = entry
	}
	cp := &Program{prep: p, fns: c.fns}
	if m := p.Mod.Func("main"); m != nil {
		if len(m.Params) > 0 {
			// Run starts main with no arguments, like the interpreter.
			return nil, fmt.Errorf("irc: @main takes %d parameters", len(m.Params))
		}
		cp.main = c.fns[m] // nil when main has no blocks => ErrNoMain
	}
	return cp, nil
}

// slot resolves one operand to its frame slot, interning constants and
// global addresses into the function's constant tail. Function values
// (and any future operand kind) are not executable at the IR level;
// compilation fails and the caller falls back to the interpreter, which
// reports the same condition at runtime if the instruction is ever
// reached.
func (c *compiler) slot(v ir.Value) (int, error) {
	fc := c.fc
	switch x := v.(type) {
	case *ir.Instr:
		if x.ID < 0 || x.ID >= fc.numValues {
			return 0, fmt.Errorf("value %%%d outside the frame", x.ID)
		}
		return x.ID, nil
	case *ir.Param:
		if x.Index < 0 || x.Index >= len(fc.fn.Params) || fc.fn.Params[x.Index] != x {
			return 0, fmt.Errorf("parameter %s not of @%s", x.Name, fc.fn.Name)
		}
		return fc.numValues + x.Index, nil
	case *ir.Const:
		return c.intern(x.Val), nil
	case *ir.Global:
		return c.intern(c.prep.Layout.Addr[x]), nil
	default:
		return 0, fmt.Errorf("operand %T not compilable", v)
	}
}

func (c *compiler) intern(val uint64) int {
	if s, ok := c.interned[val]; ok {
		return s
	}
	s := c.fc.constBase + len(c.fc.consts)
	c.fc.consts = append(c.fc.consts, val)
	c.interned[val] = s
	return s
}

func (c *compiler) slots(args []ir.Value) ([]int, error) {
	out := make([]int, len(args))
	for i, a := range args {
		s, err := c.slot(a)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// slot2 resolves a two-operand instruction's operands.
func (c *compiler) slot2(in *ir.Instr) (a, b int, err error) {
	if a, err = c.slot(in.Args[0]); err != nil {
		return 0, 0, err
	}
	b, err = c.slot(in.Args[1])
	return a, b, err
}

// watchArgs collects the instruction-valued operands, in order.
func watchArgs(args []ir.Value) []*ir.Instr {
	var out []*ir.Instr
	for _, a := range args {
		if in, ok := a.(*ir.Instr); ok {
			out = append(out, in)
		}
	}
	return out
}

// canonMask is the bit mask equivalent of ir.Canonical for a type.
func canonMask(t *ir.Type) uint64 {
	if t.Kind == ir.KindInt && t.Bits < 64 {
		return 1<<uint(t.Bits) - 1
	}
	return ^uint64(0)
}

// sxShift is the shift pair equivalent of ir.SignExtend for a type:
// int64(v<<shift) >> shift.
func sxShift(t *ir.Type) uint {
	if t.Kind != ir.KindInt || t.Bits >= 64 {
		return 0
	}
	return uint(64 - t.Bits)
}

// valueBits mirrors the interpreter's injectable width of a type.
func valueBits(t *ir.Type) int {
	if t.Kind == ir.KindInt {
		return t.Bits
	}
	return 64
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// edge builds (or reuses) the compiled plan for the CFG edge from ->
// to, including to's phi bundle for that predecessor. The entry edge
// uses from == nil.
func (c *compiler) edge(from, to *ir.Block, fc *fnCode) (*edgePlan, error) {
	k := edgeKey{from: from, to: to}
	if e, ok := c.edges[k]; ok {
		return e, nil
	}
	bc := fc.blocks[to]
	e := &edgePlan{to: bc}
	for i := 0; i < bc.nPhi; i++ {
		in := to.Instrs[i]
		ph := phiStep{d: newDest(in)}
		matched := false
		for j, pb := range in.Blocks {
			if pb != from {
				continue
			}
			if !matched {
				s, err := c.slot(in.Args[j])
				if err != nil {
					return nil, err
				}
				ph.src = s
				matched = true
			}
			if a, ok := in.Args[j].(*ir.Instr); ok {
				ph.actArgs = append(ph.actArgs, a)
			}
		}
		if !matched {
			ph.err = fmt.Errorf("phi in %s: no incoming edge from %v", in.Parent.Name, from)
		}
		e.phis = append(e.phis, ph)
	}
	c.edges[k] = e
	return e, nil
}

func (c *compiler) compileBlock(fc *fnCode, b *ir.Block) error {
	bc := fc.blocks[b]
	bc.steps = make([]step, 0, len(b.Instrs)-bc.nPhi)
	for _, in := range b.Instrs[bc.nPhi:] {
		st, err := c.compileInstr(fc, b, in)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		st.watchArgs = watchArgs(in.Args)
		bc.steps = append(bc.steps, st)
	}
	return nil
}

func (c *compiler) compileInstr(fc *fnCode, b *ir.Block, in *ir.Instr) (step, error) {
	switch in.Op {
	case ir.OpBr:
		e, err := c.edge(b, in.Blocks[0], fc)
		if err != nil {
			return step{}, err
		}
		return step{exec: func(r *Runner, fr *frame) error {
			r.executed++
			return r.enterEdge(fr, e)
		}}, nil

	case ir.OpCondBr:
		cs, err := c.slot(in.Args[0])
		if err != nil {
			return step{}, err
		}
		eTrue, err := c.edge(b, in.Blocks[0], fc)
		if err != nil {
			return step{}, err
		}
		eFalse, err := c.edge(b, in.Blocks[1], fc)
		if err != nil {
			return step{}, err
		}
		return step{exec: func(r *Runner, fr *frame) error {
			r.executed++
			if fr.vals[cs]&1 != 0 {
				return r.enterEdge(fr, eTrue)
			}
			return r.enterEdge(fr, eFalse)
		}}, nil

	case ir.OpRet:
		retTy := fc.fn.Sig.Return
		vs := -1
		if len(in.Args) == 1 {
			var err error
			if vs, err = c.slot(in.Args[0]); err != nil {
				return step{}, err
			}
		}
		return step{exec: func(r *Runner, fr *frame) error {
			r.executed++
			var v uint64
			if vs >= 0 {
				v = fr.vals[vs]
			}
			r.sp = fr.savedSP
			r.stack = r.stack[:len(r.stack)-1]
			r.free[fc.id] = append(r.free[fc.id], fr.vals)
			if len(r.stack) == 0 {
				r.done = true
				r.result = ir.SignExtend(v, retTy)
				return nil
			}
			return r.finishCall(r.stack[len(r.stack)-1], v)
		}}, nil

	case ir.OpCall:
		return c.compileCall(in)

	case ir.OpICmp:
		return c.compileICmp(in)

	case ir.OpFCmp:
		a, b, err := c.slot2(in)
		if err != nil {
			return step{}, err
		}
		cmp, err := fcmpFn(in.Pred)
		if err != nil {
			return step{}, err
		}
		return valueStep(in, func(fr *frame) uint64 {
			return b2u(cmp(math.Float64frombits(fr.vals[a]), math.Float64frombits(fr.vals[b])))
		}), nil

	case ir.OpAlloca:
		off := c.prep.AllocaOffset(in)
		d := newDest(in)
		return step{exec: func(r *Runner, fr *frame) error {
			r.put(fr, d, fr.base+off)
			return nil
		}}, nil

	case ir.OpGEP:
		return c.compileGEP(in)

	case ir.OpLoad:
		p, err := c.slot(in.Args[0])
		if err != nil {
			return step{}, err
		}
		size := in.Ty.Size()
		d := newDest(in)
		return step{exec: func(r *Runner, fr *frame) error {
			v, err := r.mem.Read(fr.vals[p], size)
			if err != nil {
				return err
			}
			r.put(fr, d, v&d.mask)
			return nil
		}}, nil

	case ir.OpStore:
		v, p, err := c.slot2(in)
		if err != nil {
			return step{}, err
		}
		size := in.Args[0].Type().Size()
		return step{exec: func(r *Runner, fr *frame) error {
			r.executed++
			return r.mem.Write(fr.vals[p], size, fr.vals[v])
		}}, nil
	}

	if in.Op.IsIntArith() {
		return c.compileIntArith(in)
	}
	if in.Op.IsFloatArith() {
		return c.compileFloatArith(in)
	}
	if in.Op.IsCast() {
		return c.compileCast(in)
	}
	return step{}, fmt.Errorf("op %s not compilable", in.Op)
}

// valueStep is the generic form for the colder value instructions: a
// compute closure plus the shared retire tail.
func valueStep(in *ir.Instr, compute func(fr *frame) uint64) step {
	d := newDest(in)
	return step{exec: func(r *Runner, fr *frame) error {
		r.put(fr, d, compute(fr))
		return nil
	}}
}

func (c *compiler) compileIntArith(in *ir.Instr) (step, error) {
	a, b, err := c.slot2(in)
	if err != nil {
		return step{}, err
	}
	d := newDest(in)
	mask := d.mask
	shift := sxShift(in.Ty)
	var exec func(r *Runner, fr *frame) error
	switch in.Op {
	case ir.OpAdd:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]+fr.vals[b])&mask); return nil }
	case ir.OpSub:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]-fr.vals[b])&mask); return nil }
	case ir.OpMul:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]*fr.vals[b])&mask); return nil }
	case ir.OpAnd:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, fr.vals[a]&fr.vals[b]&mask); return nil }
	case ir.OpOr:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]|fr.vals[b])&mask); return nil }
	case ir.OpXor:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]^fr.vals[b])&mask); return nil }
	case ir.OpShl:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]<<(fr.vals[b]&63))&mask); return nil }
	case ir.OpLShr:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, (fr.vals[a]>>(fr.vals[b]&63))&mask); return nil }
	case ir.OpAShr:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, uint64(int64(fr.vals[a]<<shift)>>shift>>(fr.vals[b]&63))&mask)
			return nil
		}
	case ir.OpSDiv, ir.OpSRem:
		rem := in.Op == ir.OpSRem
		exec = func(r *Runner, fr *frame) error {
			sa, sb := int64(fr.vals[a]<<shift)>>shift, int64(fr.vals[b]<<shift)>>shift
			if sb == 0 || (sa == math.MinInt64 && sb == -1) {
				return divideFault
			}
			if rem {
				r.put(fr, d, uint64(sa%sb)&mask)
			} else {
				r.put(fr, d, uint64(sa/sb)&mask)
			}
			return nil
		}
	case ir.OpUDiv, ir.OpURem:
		rem := in.Op == ir.OpURem
		exec = func(r *Runner, fr *frame) error {
			ua, ub := fr.vals[a], fr.vals[b]
			if ub == 0 {
				return divideFault
			}
			if rem {
				r.put(fr, d, (ua%ub)&mask)
			} else {
				r.put(fr, d, (ua/ub)&mask)
			}
			return nil
		}
	default:
		return step{}, fmt.Errorf("int-arith op %s not compilable", in.Op)
	}
	return step{exec: exec}, nil
}

func (c *compiler) compileICmp(in *ir.Instr) (step, error) {
	a, b, err := c.slot2(in)
	if err != nil {
		return step{}, err
	}
	d := newDest(in)
	sh := sxShift(in.Args[0].Type())
	var exec func(r *Runner, fr *frame) error
	switch in.Pred {
	case ir.PredEQ:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, b2u(fr.vals[a] == fr.vals[b])); return nil }
	case ir.PredNE:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, b2u(fr.vals[a] != fr.vals[b])); return nil }
	case ir.PredLT:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, b2u(int64(fr.vals[a]<<sh)>>sh < int64(fr.vals[b]<<sh)>>sh))
			return nil
		}
	case ir.PredLE:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, b2u(int64(fr.vals[a]<<sh)>>sh <= int64(fr.vals[b]<<sh)>>sh))
			return nil
		}
	case ir.PredGT:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, b2u(int64(fr.vals[a]<<sh)>>sh > int64(fr.vals[b]<<sh)>>sh))
			return nil
		}
	case ir.PredGE:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, b2u(int64(fr.vals[a]<<sh)>>sh >= int64(fr.vals[b]<<sh)>>sh))
			return nil
		}
	case ir.PredULT:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, b2u(fr.vals[a] < fr.vals[b])); return nil }
	case ir.PredULE:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, b2u(fr.vals[a] <= fr.vals[b])); return nil }
	case ir.PredUGT:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, b2u(fr.vals[a] > fr.vals[b])); return nil }
	case ir.PredUGE:
		exec = func(r *Runner, fr *frame) error { r.put(fr, d, b2u(fr.vals[a] >= fr.vals[b])); return nil }
	default:
		return step{}, fmt.Errorf("icmp pred %v not compilable", in.Pred)
	}
	return step{exec: exec}, nil
}

func (c *compiler) compileFloatArith(in *ir.Instr) (step, error) {
	a, b, err := c.slot2(in)
	if err != nil {
		return step{}, err
	}
	d := newDest(in)
	f := math.Float64frombits
	var exec func(r *Runner, fr *frame) error
	switch in.Op {
	case ir.OpFAdd:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, math.Float64bits(f(fr.vals[a])+f(fr.vals[b])))
			return nil
		}
	case ir.OpFSub:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, math.Float64bits(f(fr.vals[a])-f(fr.vals[b])))
			return nil
		}
	case ir.OpFMul:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, math.Float64bits(f(fr.vals[a])*f(fr.vals[b])))
			return nil
		}
	case ir.OpFDiv:
		exec = func(r *Runner, fr *frame) error {
			r.put(fr, d, math.Float64bits(f(fr.vals[a])/f(fr.vals[b])))
			return nil
		}
	default:
		return step{}, fmt.Errorf("float-arith op %s not compilable", in.Op)
	}
	return step{exec: exec}, nil
}

// compileCast pre-binds a cast's value transform.
func (c *compiler) compileCast(in *ir.Instr) (step, error) {
	a, err := c.slot(in.Args[0])
	if err != nil {
		return step{}, err
	}
	d := newDest(in)
	mask := d.mask
	sh := sxShift(in.Args[0].Type())
	switch in.Op {
	case ir.OpTrunc, ir.OpZExt, ir.OpPtrToInt:
		return step{exec: func(r *Runner, fr *frame) error { r.put(fr, d, fr.vals[a]&mask); return nil }}, nil
	case ir.OpSExt:
		return step{exec: func(r *Runner, fr *frame) error {
			r.put(fr, d, uint64(int64(fr.vals[a]<<sh)>>sh)&mask)
			return nil
		}}, nil
	case ir.OpIntToPtr, ir.OpBitcast:
		return step{exec: func(r *Runner, fr *frame) error { r.put(fr, d, fr.vals[a]); return nil }}, nil
	case ir.OpFPToSI:
		return valueStep(in, func(fr *frame) uint64 {
			f := math.Float64frombits(fr.vals[a])
			if math.IsNaN(f) {
				return 0
			}
			return uint64(int64(f)) & mask
		}), nil
	case ir.OpSIToFP:
		return valueStep(in, func(fr *frame) uint64 {
			return math.Float64bits(float64(int64(fr.vals[a]<<sh) >> sh))
		}), nil
	}
	return step{}, fmt.Errorf("cast op %s not compilable", in.Op)
}

// compileGEP folds every constant part of the address — struct field
// offsets and constant indices times their stride — into one offset at
// compile time, leaving only the dynamic indices for the step.
func (c *compiler) compileGEP(in *ir.Instr) (step, error) {
	base, err := c.slot(in.Args[0])
	if err != nil {
		return step{}, err
	}
	type gepIdx struct {
		slot  int
		scale uint64
		shift uint
	}
	var off uint64
	var dyn []gepIdx
	for i, s := range c.prep.GEPSteps(in) {
		if s.IsConst {
			off += s.Offset
			continue
		}
		idx := in.Args[1+i]
		shift := sxShift(idx.Type())
		if k, ok := idx.(*ir.Const); ok {
			off += uint64(int64(k.Val<<shift)>>shift) * s.Scale
			continue
		}
		is, err := c.slot(idx)
		if err != nil {
			return step{}, err
		}
		dyn = append(dyn, gepIdx{slot: is, scale: s.Scale, shift: shift})
	}
	d := newDest(in)
	switch len(dyn) {
	case 0:
		return step{exec: func(r *Runner, fr *frame) error { r.put(fr, d, fr.vals[base]+off); return nil }}, nil
	case 1:
		g := dyn[0]
		return step{exec: func(r *Runner, fr *frame) error {
			r.put(fr, d, fr.vals[base]+off+uint64(int64(fr.vals[g.slot]<<g.shift)>>g.shift)*g.scale)
			return nil
		}}, nil
	}
	return step{exec: func(r *Runner, fr *frame) error {
		addr := fr.vals[base] + off
		for _, g := range dyn {
			addr += uint64(int64(fr.vals[g.slot]<<g.shift)>>g.shift) * g.scale
		}
		r.put(fr, d, addr)
		return nil
	}}, nil
}

func (c *compiler) compileCall(in *ir.Instr) (step, error) {
	args, err := c.slots(in.Args)
	if err != nil {
		return step{}, err
	}
	var st step
	if in.HasResult() {
		st.fin = newDest(in)
	}
	if in.Callee != nil {
		if len(in.Callee.Blocks) == 0 {
			declErr := fmt.Errorf("call to declaration @%s", in.Callee.Name)
			st.exec = func(r *Runner, fr *frame) error { return declErr }
			return st, nil
		}
		if len(args) != len(in.Callee.Params) {
			return step{}, fmt.Errorf("call to @%s passes %d arguments, want %d", in.Callee.Name, len(args), len(in.Callee.Params))
		}
		callee := c.fns[in.Callee]
		st.exec = func(r *Runner, fr *frame) error { return r.pushFrame(callee, fr, args) }
		return st, nil
	}
	builtin := in.Builtin
	st.exec = func(r *Runner, fr *frame) error {
		var buf [8]uint64
		vals := buf[:0]
		if len(args) > len(buf) {
			vals = make([]uint64, 0, len(args))
		}
		for _, s := range args {
			vals = append(vals, fr.vals[s])
		}
		v, err := rt.Call(r.env, builtin, vals)
		if err != nil {
			return err
		}
		return r.finishCall(fr, v)
	}
	return st, nil
}

func fcmpFn(p ir.Pred) (func(a, b float64) bool, error) {
	switch p {
	case ir.PredEQ:
		return func(a, b float64) bool { return a == b }, nil
	case ir.PredNE:
		return func(a, b float64) bool { return a != b }, nil
	case ir.PredLT:
		return func(a, b float64) bool { return a < b }, nil
	case ir.PredLE:
		return func(a, b float64) bool { return a <= b }, nil
	case ir.PredGT:
		return func(a, b float64) bool { return a > b }, nil
	case ir.PredGE:
		return func(a, b float64) bool { return a >= b }, nil
	default:
		return nil, fmt.Errorf("fcmp pred %v not compilable", p)
	}
}
