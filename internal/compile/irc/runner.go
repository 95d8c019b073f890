package irc

import (
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
	// limit is conv.Limit(MaxInstrs): the one count the loop compares
	// executed against every step.
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

	// seekBlk and seekPC are the top frame's position in the golden
	// snapshot the convergence seek compares against (seekBlk nil when
	// not seeking): the one position the loop compares every step.
	seekBlk *blockCode
	seekPC  int

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

// convergence is the masking-convergence and hang-cycle arm: the
// shared schedule, plus the rest of the sought snapshot's position and
// its top frame's function and slots, resolved when the seek moves to
// it, and the state saved at the start of the cycle watch's window.
type convergence struct {
	fault.Convergence[*interp.Snapshot]
	depth int
	topFn *fnCode
	top   interp.FrameView
	cycle cycleWatch
}

// cycleWatch is the runner's state saved at the start of a window of
// the cycle watch. The position is compared every step once the run is
// past the golden length; the rest on a position match.
type cycleWatch struct {
	depth  int
	blk    *blockCode
	pc     int
	sp     uint64
	frames []interp.FrameView
	mem    *mem.Memory // frozen
}

// Converge arms masking convergence and the hang-cycle watch under the
// shared schedule of fault.Convergence. snaps are the golden run's
// snapshots after the point the runner starts from, in capture order;
// g is that golden run. The runner's output stream must be a
// *bytes.Buffer already holding the golden output up to the start
// point, as the injectors' replay path writes it; otherwise Converge is
// a no-op.
//
// Once the injected fault has activated, the runner seeks each
// snapshot's position in turn: its top frame's block and pc at its
// stack depth. Whenever the run is at the sought position, the runner
// compares the rest of its state with the snapshot: the top frame's
// value and parameter slots, then every frame's position, base, saved
// stack pointer and slots, memory and the stack pointer. Equal state
// (with equal output) means the rest of the run is the golden run's
// tail from that snapshot, whatever the count, so the runner stops
// there if that tail fits the hang budget, with the golden output and
// exit code and Executed at the convergence point.
//
// Once the run has executed as many instructions as the golden run, the
// runner also watches for a repeated state: equal position, output
// length, candidate count, frames and memory at two points of the run.
// A deterministic run that revisits a state loops forever, so it must
// reach the hang budget: the runner stops there with interp.ErrHang and
// the output as it stands, with Executed at the detection point. The
// activation watch needs no compare: a read that activates the fault
// between the two points has already done so, and with none, the
// repeating path never reads the watched value.
//
// Either way, outcome, output, error, injection record and RNG state
// are those of the full run.
func (r *Runner) Converge(snaps []*interp.Snapshot, g fault.Golden) {
	r.conv = convergence{Convergence: fault.NewConvergence(snaps, g, r.out, r.executed)}
}

// Converged reports whether the run ended at a convergence point.
func (r *Runner) Converged() bool { return r.conv.Converged() }

// Cycled reports whether the run ended as a hang because its state
// repeated.
func (r *Runner) Cycled() bool { return r.conv.Cycled() }

// setLimit points limit at the shared schedule's next stop.
func (r *Runner) setLimit() { r.limit = r.conv.Limit(r.MaxInstrs) }

// seek points the position compare at the snapshot the schedule seeks
// next, or turns it off past the last one. It runs when the fault
// activates and when a window ends.
func (r *Runner) seek() {
	r.seekBlk = nil
	if k, ok := r.conv.Seek(r.executed); ok {
		c := &r.conv
		c.depth = k.NumFrames()
		c.top = k.Frame(c.depth - 1)
		c.topFn = r.cp.fns[c.top.Fn]
		r.seekBlk = c.topFn.blocks[c.top.Blk]
		r.seekPC = c.top.Idx - r.seekBlk.nPhi
	}
	r.setLimit()
}

// activate records that the fault's corrupted value has been read and
// starts the convergence seek.
func (r *Runner) activate() {
	r.Inject.Activated = true
	r.watchInstr = nil
	r.seek()
}

// atLimit is the slow path of the loop's budget compare below the hang
// budget: the seek's window has ended, or the run is past the golden
// length and the cycle watch compares this step. It reports whether the
// cycle watch found the run's state repeated.
func (r *Runner) atLimit() bool {
	if r.conv.Expired(r.executed) {
		r.seek()
	}
	return r.conv.Watching(r.executed) && r.cycled()
}

// rejoined reports whether the run, at the sought snapshot's top frame
// block and pc, has rejoined it. The depth and the top frame's slots,
// which a diverged run rarely gets past, are compared inline; then the
// shared compare of the output, every frame, and memory and the stack
// pointer.
func (r *Runner) rejoined(fr *frame) bool {
	c := &r.conv
	fc := c.topFn
	if len(r.stack) != c.depth ||
		!slices.Equal(fr.vals[:fc.numValues], c.top.Vals) || !slices.Equal(fr.vals[fc.numValues:fc.constBase], c.top.Params) {
		return false
	}
	return c.Rejoined(r.executed, r.MaxInstrs, func(k *interp.Snapshot) bool {
		return r.sameFrames(c.depth, k.Frame) && k.MatchesMemory(r.mem, r.sp)
	})
}

// sameFrames compares the run's frame stack with n frames, frame(i)
// bottom first: every frame's position, base, saved stack pointer,
// value and parameter slots.
func (r *Runner) sameFrames(n int, frame func(int) interp.FrameView) bool {
	if len(r.stack) != n {
		return false
	}
	top := len(r.stack) - 1
	for i, fr := range r.stack {
		fv := frame(i)
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
	return true
}

// cycled is one step of the cycle watch: at the start of a window it
// saves the run's state; inside one it compares the run's state with
// the saved state, position first.
func (r *Runner) cycled() bool {
	if r.conv.NewWindow(r.executed, r.candCount) {
		r.saveWindow()
		return false
	}
	w := &r.conv.cycle
	top := r.stack[len(r.stack)-1]
	if len(r.stack) != w.depth || top.blk != w.blk || top.pc != w.pc || r.sp != w.sp {
		return false
	}
	return r.conv.Repeated(r.candCount, func() bool { return r.sameFrames(len(w.frames), w.frame) && r.mem.Equal(w.mem) })
}

func (w *cycleWatch) frame(i int) interp.FrameView { return w.frames[i] }

// saveWindow saves the run's current state for the cycle watch's new
// window. The saved memory is a frozen snapshot, so the live memory
// copies a page before its next write.
func (r *Runner) saveWindow() {
	w := &r.conv.cycle
	top := r.stack[len(r.stack)-1]
	w.depth, w.blk, w.pc, w.sp = len(r.stack), top.blk, top.pc, r.sp
	w.frames = w.frames[:0]
	for i, fr := range r.stack {
		fc := r.cp.fns[fr.blk.blk.Parent]
		idx := fr.pc + fr.blk.nPhi
		if i < len(r.stack)-1 {
			idx-- // parked on its OpCall
		}
		w.frames = append(w.frames, interp.FrameView{
			Fn: fc.fn, Blk: fr.blk.blk, Idx: idx, Base: fr.base, SavedSP: fr.savedSP,
			Vals:   slices.Clone(fr.vals[:fc.numValues]),
			Params: slices.Clone(fr.vals[fc.numValues:fc.constBase]),
		})
	}
	w.mem = r.mem.Snapshot()
}

func (r *Runner) loop() (int64, error) {
	r.setLimit()
	for {
		fr := r.stack[len(r.stack)-1]
		steps := fr.blk.steps
		if fr.pc >= len(steps) {
			return 0, fmt.Errorf("block %s fell through", fr.blk.blk.Name)
		}
		if r.executed >= r.limit {
			if r.executed >= r.MaxInstrs || r.atLimit() {
				return 0, interp.ErrHang
			}
		}
		if fr.blk == r.seekBlk && fr.pc == r.seekPC && r.rejoined(fr) {
			return r.conv.Exit(), nil
		}
		st := &steps[fr.pc]
		fr.pc++
		if r.watchInstr != nil && r.watchFrame == fr {
			for _, a := range st.watchArgs {
				if a == r.watchInstr {
					r.activate()
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
					r.activate()
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
		if inj.Activated {
			r.seek() // the record came in activated
		}
		v = nv
	}
	r.candCount++
	return v
}
