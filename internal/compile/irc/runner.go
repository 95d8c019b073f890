package irc

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/mem"
	"hlfi/internal/rt"
)

// frame is one activation record of the compiled engine. pc indexes
// blk.steps (phis are executed on edge entry, so pc 0 is the first
// non-phi instruction). The loop advances pc before it runs a step, so
// a frame parked on a call has pc one past the OpCall. vals is the
// function's slot array: results, parameters, then the constant tail
// (see fnCode).
type frame struct {
	blk     *blockCode
	pc      int
	vals    []uint64
	base    uint64
	savedSP uint64
}

// Runner executes one run of a compiled program. It mirrors
// interp.Runner byte for byte: same outcomes, same error strings, same
// RNG consumption, same executed counts — minus the instrumentation
// attempts never use (tracing, profiling sinks, snapshot capture),
// which is not compiled in.
type Runner struct {
	cp  *Program
	mem *mem.Memory
	out io.Writer
	env *rt.Env

	// MaxInstrs bounds dynamic instructions; exceeded => interp.ErrHang.
	MaxInstrs uint64
	// Inject, when non-nil, arms a single fault injection.
	Inject *interp.Injection

	executed  uint64
	candCount uint64
	// limit is min(MaxInstrs, next convergence boundary): the one count
	// the loop compares executed against every step.
	limit uint64
	sp    uint64
	stack []*frame
	// free holds, per fnCode.id, the slot arrays of returned frames for
	// pushFrame to reuse. Only the arrays are recycled, never the
	// frames: activation tracking compares frames by pointer.
	free [][][]uint64
	// armed caches Inject != nil && !Inject.Happened for the retire
	// path; it is set when the run starts and cleared when the fault
	// fires.
	armed bool

	watchFrame *frame
	watchInstr *ir.Instr

	done   bool
	result int64

	conv convergence
}

// NewRunner builds a runner with fresh memory, mirroring
// interp.NewRunner.
func NewRunner(cp *Program, out io.Writer) *Runner {
	m := mem.New()
	cp.prep.Layout.Install(m)
	r := &Runner{
		cp: cp, mem: m, out: out,
		MaxInstrs: interp.DefaultMaxInstrs,
		sp:        mem.StackTop,
		free:      make([][][]uint64, len(cp.fns)),
	}
	r.env = &rt.Env{Mem: m, Out: out}
	return r
}

// NewRunnerFromSnapshot builds a runner resuming from a golden-run
// snapshot taken by the interpreter, mirroring
// interp.NewRunnerFromSnapshot. Each snapshot frame is copied once,
// straight into a fresh slot array.
func NewRunnerFromSnapshot(cp *Program, s *interp.Snapshot, out io.Writer) *Runner {
	m, sp := s.CloneMemory()
	r := &Runner{
		cp: cp, mem: m, out: out,
		MaxInstrs: interp.DefaultMaxInstrs,
		executed:  s.Executed,
		sp:        sp,
		free:      make([][][]uint64, len(cp.fns)),
	}
	r.env = &rt.Env{Mem: m, Out: out}
	r.stack = make([]*frame, s.NumFrames())
	for i := range r.stack {
		fv := s.Frame(i)
		fc := cp.fns[fv.Fn]
		bc := fc.blocks[fv.Blk]
		pc := fv.Idx - bc.nPhi
		if i < len(r.stack)-1 {
			pc++ // parked on its OpCall
		}
		vals := fc.newSlots()
		copy(vals[:fc.numValues], fv.Vals)
		copy(vals[fc.numValues:fc.constBase], fv.Params)
		r.stack[i] = &frame{
			blk: bc, pc: pc,
			vals: vals, base: fv.Base, savedSP: fv.SavedSP,
		}
	}
	return r
}

// SetCandCount pre-loads the dynamic candidate count covered by the
// portion of the run the snapshot skipped, mirroring
// interp.Runner.SetCandCount.
func (r *Runner) SetCandCount(n uint64) { r.candCount = n }

// Executed reports the number of dynamic instructions retired.
func (r *Runner) Executed() uint64 { return r.executed }

// Run executes main to completion.
func (r *Runner) Run() (int64, error) {
	if r.cp.main == nil {
		return 0, interp.ErrNoMain
	}
	r.armed = r.Inject != nil && !r.Inject.Happened
	if err := r.pushFrame(r.cp.main, nil, nil); err != nil {
		return 0, err
	}
	return r.loop()
}

// Resume continues a snapshot-restored runner.
func (r *Runner) Resume() (int64, error) {
	r.armed = r.Inject != nil && !r.Inject.Happened
	return r.loop()
}

// convergence is the masking-convergence arm: the golden snapshots
// still ahead of the run, the golden run a converged attempt finishes
// as, and the output stream compared against it.
type convergence struct {
	snaps  []*interp.Snapshot
	golden fault.Golden
	out    *bytes.Buffer
	from   int // out.Len() when armed: the restore point's OutLen
	done   bool
}

// Converge arms masking convergence. snaps are the golden run's
// snapshots after the point the runner starts from, in capture order;
// g is that golden run. The runner's output stream must be a
// *bytes.Buffer already holding the golden output up to the start
// point, as the injectors' replay path writes it; otherwise Converge is
// a no-op. So is a hang budget below the golden run's length.
//
// At each snapshot boundary the run reaches exactly, once the injected
// fault has activated, the runner compares its whole state with the
// snapshot: output so far, stack pointer, every frame's position, base,
// saved stack pointer, value and parameter slots, and memory. Equal
// state at an equal dynamic count means the rest of the run is the
// golden run, so the runner stops there: it appends the rest of the
// golden output and returns the golden exit code, with Executed at the
// convergence point. Outcome, output, error, injection record and RNG
// state are those of the full run.
func (r *Runner) Converge(snaps []*interp.Snapshot, g fault.Golden) {
	out, ok := r.out.(*bytes.Buffer)
	if !ok {
		return
	}
	r.conv = convergence{snaps: snaps, golden: g, out: out, from: out.Len()}
}

// Converged reports whether the run ended at a convergence point.
func (r *Runner) Converged() bool { return r.conv.done }

// setLimit points limit at the next convergence boundary, or at the
// hang budget when none is left.
func (r *Runner) setLimit() {
	r.limit = r.MaxInstrs
	if c := &r.conv; len(c.snaps) > 0 && c.snaps[0].Executed < r.limit {
		r.limit = c.snaps[0].Executed
	}
}

// rejoined is the slow path of the loop's budget compare below the
// hang budget: it checks the boundary the run has reached, if it
// reached one exactly, and moves limit on to the next.
func (r *Runner) rejoined() bool {
	c := &r.conv
	for len(c.snaps) > 0 && c.snaps[0].Executed < r.executed {
		c.snaps = c.snaps[1:] // overshot by a phi bundle or another path
	}
	if len(c.snaps) > 0 && c.snaps[0].Executed == r.executed {
		k := c.snaps[0]
		c.snaps = c.snaps[1:]
		if r.Inject != nil && r.Inject.Activated && r.matches(k) {
			c.out.Write(c.golden.Output[k.OutLen:])
			c.done = true
			return true
		}
	}
	r.setLimit()
	return false
}

// matches compares the run's state with golden snapshot k, cheapest
// parts first.
func (r *Runner) matches(k *interp.Snapshot) bool {
	c := &r.conv
	if c.out.Len() != k.OutLen || !bytes.Equal(c.out.Bytes()[c.from:], c.golden.Output[c.from:k.OutLen]) {
		return false
	}
	if len(r.stack) != k.NumFrames() {
		return false
	}
	top := len(r.stack) - 1
	for i, fr := range r.stack {
		fv := k.Frame(i)
		pc := fv.Idx - fr.blk.nPhi
		if i < top {
			pc++ // parked on its OpCall
		}
		if fr.blk.blk != fv.Blk || fr.pc != pc || fr.base != fv.Base || fr.savedSP != fv.SavedSP {
			return false
		}
		fc := r.cp.fns[fv.Fn]
		if !slices.Equal(fr.vals[:fc.numValues], fv.Vals) || !slices.Equal(fr.vals[fc.numValues:fc.constBase], fv.Params) {
			return false
		}
	}
	return k.MatchesMemory(r.mem, r.sp)
}

func (r *Runner) loop() (int64, error) {
	if r.conv.golden.Instrs > r.MaxInstrs {
		r.conv.snaps = nil // the full run could hang before the golden end
	}
	r.setLimit()
	for {
		fr := r.stack[len(r.stack)-1]
		steps := fr.blk.steps
		if fr.pc >= len(steps) {
			return 0, fmt.Errorf("block %s fell through", fr.blk.blk.Name)
		}
		if r.executed >= r.limit {
			if r.executed >= r.MaxInstrs {
				return 0, interp.ErrHang
			}
			if r.rejoined() {
				return r.conv.golden.Exit, nil
			}
		}
		st := &steps[fr.pc]
		fr.pc++
		if r.watchInstr != nil && r.watchFrame == fr {
			for _, a := range st.watchArgs {
				if a == r.watchInstr {
					r.Inject.Activated = true
					r.watchInstr = nil
					break
				}
			}
		}
		if err := st.exec(r, fr); err != nil {
			return 0, err
		}
		if r.done {
			return r.result, nil
		}
	}
}

// pushFrame begins a call: the callee's slot array gets its constant
// tail and the caller's argument slots copied straight into the
// parameter slots. A slot array a returned frame left on the free list
// is reused with its result and parameter slots zeroed, as a fresh
// interpreter frame's are (convergence compares them); its constant
// tail is never written, so it is still the template.
func (r *Runner) pushFrame(fc *fnCode, caller *frame, args []int) error {
	if r.sp < fc.frameSize || r.sp-fc.frameSize < mem.StackLimit {
		return &mem.Fault{Kind: mem.FaultStackOverflow, Addr: r.sp}
	}
	savedSP := r.sp
	r.sp -= fc.frameSize
	base := r.sp
	if fc.mapFrame {
		r.mem.Map(base, fc.frameSize)
	}
	var vals []uint64
	if free := r.free[fc.id]; len(free) > 0 {
		vals = free[len(free)-1]
		r.free[fc.id] = free[:len(free)-1]
		clear(vals[:fc.constBase])
	} else {
		vals = fc.newSlots()
	}
	fr := &frame{vals: vals, base: base, savedSP: savedSP}
	params := fr.vals[fc.numValues:fc.constBase]
	for i, s := range args {
		params[i] = caller.vals[s]
	}
	r.stack = append(r.stack, fr)
	return r.enterEdge(fr, fc.entry)
}

// enterEdge positions a frame at the start of an edge's target block
// and executes the edge's phi bundle (incoming values read "in
// parallel", mirroring enterBlock).
func (r *Runner) enterEdge(fr *frame, e *edgePlan) error {
	fr.blk = e.to
	fr.pc = 0
	nPhi := len(e.phis)
	if nPhi == 0 {
		return nil
	}
	var tmp [8]uint64
	vals := tmp[:0]
	if nPhi > len(tmp) {
		vals = make([]uint64, 0, nPhi)
	}
	for i := 0; i < nPhi; i++ {
		ph := &e.phis[i]
		if r.watchInstr != nil && r.watchFrame == fr {
			for _, a := range ph.actArgs {
				if a == r.watchInstr {
					r.Inject.Activated = true
					r.watchInstr = nil
					break
				}
			}
		}
		if ph.err != nil {
			return ph.err
		}
		vals = append(vals, fr.vals[ph.src])
	}
	for i := 0; i < nPhi; i++ {
		d := e.phis[i].d
		v := vals[i]
		r.executed++
		if r.armed {
			v = r.inject(fr, d, v)
		}
		fr.vals[d.id] = v
	}
	return nil
}

// finishCall retires the OpCall the frame is parked on with the
// callee's (or builtin's) return value.
func (r *Runner) finishCall(fr *frame, v uint64) error {
	if d := fr.blk.steps[fr.pc-1].fin; d != nil {
		r.put(fr, d, v&d.mask)
		return nil
	}
	r.executed++
	return nil
}

// put retires a value-producing instruction into its slot. The
// compiled engine has no Profile sink — profiling runs stay on the
// interpreter — so outside an armed injection retiring is just the
// dynamic-instruction counter. put is small enough to inline into
// every value step.
func (r *Runner) put(fr *frame, d *dest, v uint64) {
	r.executed++
	if r.armed {
		v = r.inject(fr, d, v)
	}
	fr.vals[d.id] = v
}

// inject is the armed half of retiring: it counts candidate executions
// and performs the injection when its trigger is reached, watching fr,
// the frame the value retires into.
func (r *Runner) inject(fr *frame, d *dest, v uint64) uint64 {
	inj := r.Inject
	if !inj.Candidates[d.seq] {
		return v
	}
	if inj.TriggerIndex == r.candCount {
		bit := inj.Rng.Intn(d.width)
		nv := (v ^ (1 << uint(bit))) & d.mask
		inj.Happened = true
		inj.Target = d.in
		inj.Bit = bit
		inj.OrigVal = v
		inj.FaultyVal = nv
		inj.InstrIndex = r.executed
		r.watchFrame = fr
		r.watchInstr = d.in
		r.armed = false
		v = nv
	}
	r.candCount++
	return v
}
