package mc

import (
	"bytes"
	"io"

	"hlfi/internal/fault"
	"hlfi/internal/machine"
	"hlfi/internal/mem"
	"hlfi/internal/rt"
	"hlfi/internal/x86"
)

type watchKind int

const (
	watchNone watchKind = iota
	watchReg
	watchXmm
	watchFlags
)

// Engine executes one run of a pre-decoded program. It mirrors
// machine.Machine byte for byte, minus the instrumentation attempts
// never use (tracing, profiling sinks, snapshot capture), which is not
// compiled in.
type Engine struct {
	cp  *Program
	mem *mem.Memory
	env *rt.Env

	regs  [x86.NumRegs]uint64
	xmm   [x86.NumXRegs][2]uint64
	flags uint64
	rip   int

	// MaxInstrs bounds dynamic instructions; exceeded => machine.ErrHang.
	MaxInstrs uint64
	// Inject, when non-nil, arms a single fault injection.
	Inject *machine.Injection

	executed  uint64
	candCount uint64
	// limit is min(MaxInstrs, next convergence boundary, golden length
	// once the cycle watch is armed): the one count the loop compares
	// executed against every step.
	limit uint64
	// armed caches Inject != nil && !Inject.Happened for the loop; it is
	// set when the run starts and cleared when the fault fires.
	armed bool

	watch     watchKind
	watchReg  x86.Reg
	watchXmm  x86.XReg
	watchMask uint64

	conv convergence
}

// New creates an engine with fresh memory, the globals image installed,
// and the constant pool mapped, mirroring machine.New.
func New(cp *Program, out io.Writer) *Engine {
	m := mem.New()
	if len(cp.layoutImage) > 0 {
		m.Map(cp.layoutBase, uint64(len(cp.layoutImage)))
		if err := m.WriteBytes(cp.layoutBase, cp.layoutImage); err != nil {
			panic("mc: install globals: " + err.Error())
		}
	} else {
		m.Map(cp.layoutBase, mem.PageSize)
	}
	if len(cp.prog.Rodata) > 0 {
		m.Map(x86.RodataBase, uint64(len(cp.prog.Rodata)))
		if err := m.WriteBytes(x86.RodataBase, cp.prog.Rodata); err != nil {
			panic("mc: install rodata: " + err.Error())
		}
	}
	return &Engine{
		cp:        cp,
		mem:       m,
		env:       &rt.Env{Mem: m, Out: out},
		MaxInstrs: machine.DefaultMaxInstrs,
	}
}

// NewFromSnapshot creates an engine resuming from a golden-run snapshot
// taken by the simulator, mirroring machine.NewFromSnapshot.
func NewFromSnapshot(cp *Program, s *machine.Snapshot, out io.Writer) *Engine {
	m, regs, xmm, flags, rip := s.CloneState()
	return &Engine{
		cp:        cp,
		mem:       m,
		env:       &rt.Env{Mem: m, Out: out},
		regs:      regs,
		xmm:       xmm,
		flags:     flags,
		rip:       rip,
		MaxInstrs: machine.DefaultMaxInstrs,
		executed:  s.Executed,
	}
}

// SetCandCount pre-loads the dynamic candidate count covered by the
// portion of the run the snapshot skipped.
func (e *Engine) SetCandCount(n uint64) { e.candCount = n }

// Executed reports retired dynamic instructions.
func (e *Engine) Executed() uint64 { return e.executed }

// Run executes the program from its entry point until main returns.
func (e *Engine) Run() (int64, error) {
	e.regs[x86.RSP] = mem.StackTop
	if err := e.push(e.cp.haltAddr); err != nil {
		return 0, err
	}
	e.rip = e.cp.prog.Entry
	return e.loop()
}

// Resume continues a snapshot-restored engine.
func (e *Engine) Resume() (int64, error) { return e.loop() }

// convergence is the masking-convergence arm: the golden snapshots
// still ahead of the run, the golden run a converged attempt finishes
// as, and the output stream compared against it; plus the hang-cycle
// watch the same arming call sets up.
type convergence struct {
	snaps  []*machine.Snapshot
	golden fault.Golden
	out    *bytes.Buffer
	from   int // out.Len() when armed: the restore point's OutLen
	done   bool
	cycle  cycleWatch
}

// cycleWatch is the hang-cycle arm: the state saved at the start of the
// current window, which the loop compares every step once the run is
// past the golden length. Windows double in length (Brent's cycle
// finding), so a run that enters a cycle of period p is caught within
// about twice max(p, first window) instructions of entering it.
type cycleWatch struct {
	cycled bool
	next   uint64 // executed at which the next window starts
	window uint64 // length of the current window

	// rip is the saved position, compared every step; state holds the
	// saved registers, flags and memory, compared on a position match
	// after the rest of the saved state.
	rip       int
	state     *machine.Snapshot
	outLen    int
	candCount uint64
}

// firstCycleWindow is the length of the cycle watch's first window.
// Saving a window costs a frozen snapshot of memory, so windows start
// long enough to amortise it; every hang cycle the benchmarks produce
// has a period well below it.
const firstCycleWindow = 1024

// Converge arms masking convergence and the hang-cycle watch. snaps are
// the golden run's snapshots after the point the engine starts from, in
// capture order; g is that golden run. The engine's output stream must
// be a *bytes.Buffer already holding the golden output up to the start
// point, as the injectors' replay path writes it; otherwise Converge is
// a no-op. So is a hang budget below the golden run's length.
//
// At each snapshot boundary, once the injected fault has activated,
// the engine compares its whole state with the snapshot: output so
// far, registers, XMM registers, flags, rip and memory. Equal state at
// an equal dynamic count means the rest of the run is the golden run,
// so the engine stops there: it appends the rest of the golden output
// and returns the golden exit code, with Executed at the convergence
// point.
//
// Once the run has executed as many instructions as the golden run, the
// engine also watches for a repeated state: equal rip, registers,
// flags, XMM registers, output length, candidate count and memory at
// two points of the run. A deterministic run that revisits a state
// loops forever, so it must reach the hang budget: the engine stops
// there with machine.ErrHang and the output as it stands, with Executed
// at the detection point. The activation watch needs no compare: a
// read that activates the fault, or a write that kills it, between the
// two points has already done so, and with neither, the repeating path
// never touches the watched location.
//
// Either way, outcome, output, error, injection record and RNG state
// are those of the full run.
func (e *Engine) Converge(snaps []*machine.Snapshot, g fault.Golden) {
	out, ok := e.env.Out.(*bytes.Buffer)
	if !ok {
		return
	}
	e.conv = convergence{snaps: snaps, golden: g, out: out, from: out.Len()}
}

// Converged reports whether the run ended at a convergence point.
func (e *Engine) Converged() bool { return e.conv.done }

// Cycled reports whether the run ended as a hang because its state
// repeated.
func (e *Engine) Cycled() bool { return e.conv.cycle.cycled }

// setLimit points limit at the next convergence boundary, or at the
// golden length once Converge armed the cycle watch, or at the hang
// budget.
func (e *Engine) setLimit() {
	e.limit = e.MaxInstrs
	c := &e.conv
	if len(c.snaps) > 0 && c.snaps[0].Executed < e.limit {
		e.limit = c.snaps[0].Executed
	}
	if c.out != nil && c.golden.Instrs < e.limit {
		e.limit = c.golden.Instrs
	}
}

// ending is how the slow path of the loop's budget compare ends the
// run, if it does.
type ending int

const (
	endNone ending = iota
	endConverged
	endCycled
)

// atLimit is the slow path of the loop's budget compare below the hang
// budget: a convergence boundary is due, or the run is past the golden
// length and the cycle watch compares this step.
func (e *Engine) atLimit() ending {
	c := &e.conv
	if len(c.snaps) > 0 && c.snaps[0].Executed <= e.executed {
		if e.rejoined() {
			return endConverged
		}
		e.setLimit()
	}
	if e.executed >= c.golden.Instrs && e.cycled() {
		return endCycled
	}
	return endNone
}

// rejoined checks the convergence boundary that is due. Machine
// instructions retire one at a time, so the run meets every boundary
// after its start exactly.
func (e *Engine) rejoined() bool {
	c := &e.conv
	k := c.snaps[0]
	c.snaps = c.snaps[1:]
	if k.Executed == e.executed && e.Inject != nil && e.Inject.Activated && e.matches(k) {
		c.out.Write(c.golden.Output[k.OutLen:])
		c.done = true
		return true
	}
	return false
}

// matches compares the engine's state with golden snapshot k, output
// first.
func (e *Engine) matches(k *machine.Snapshot) bool {
	c := &e.conv
	return c.out.Len() == k.OutLen &&
		bytes.Equal(c.out.Bytes()[c.from:], c.golden.Output[c.from:k.OutLen]) &&
		k.MatchesState(e.mem, &e.regs, &e.xmm, e.flags, e.rip)
}

// cycled is one step of the cycle watch: inside a window it compares
// the engine's state with the window's saved state, rip first; at the
// end of a window it saves the state and doubles the window.
func (e *Engine) cycled() bool {
	w := &e.conv.cycle
	if e.executed >= w.next {
		e.saveWindow()
		return false
	}
	if e.rip != w.rip || e.conv.out.Len() != w.outLen || e.candCount != w.candCount ||
		!w.state.MatchesState(e.mem, &e.regs, &e.xmm, e.flags, e.rip) {
		return false
	}
	w.cycled = true
	return true
}

// saveWindow starts the next window of the cycle watch at the engine's
// current state.
func (e *Engine) saveWindow() {
	w := &e.conv.cycle
	w.window = max(2*w.window, firstCycleWindow)
	w.next = e.executed + w.window
	w.rip, w.outLen, w.candCount = e.rip, e.conv.out.Len(), e.candCount
	w.state = machine.FreezeState(e.mem, &e.regs, &e.xmm, e.flags, e.rip)
}

func (e *Engine) loop() (int64, error) {
	e.armed = e.Inject != nil && !e.Inject.Happened
	if e.conv.golden.Instrs > e.MaxInstrs {
		e.conv.snaps = nil // the full run could hang before the golden end
	}
	e.setLimit()
	steps := e.cp.steps
	for {
		rip := e.rip
		if rip < 0 || rip >= len(steps) {
			return 0, &mem.Fault{Kind: mem.FaultBadCodeAddr, Addr: mem.CodeBase + uint64(rip)*mem.CodeStride}
		}
		if e.executed >= e.limit {
			if e.executed >= e.MaxInstrs {
				return 0, machine.ErrHang
			}
			switch e.atLimit() {
			case endConverged:
				return e.conv.golden.Exit, nil
			case endCycled:
				return 0, machine.ErrHang
			}
		}
		st := &steps[rip]
		e.executed++
		if e.watch != watchNone {
			e.checkActivation(st)
		}
		done, err := st.exec(e)
		if err != nil {
			return 0, err
		}
		if done {
			return int64(int32(e.regs[x86.RAX])), nil
		}
		if e.armed && e.Inject.Candidates[rip] {
			e.trigger(st, rip)
		}
	}
}

// trigger counts one candidate execution and performs the injection
// when its trigger is reached.
func (e *Engine) trigger(st *step, rip int) {
	inj := e.Inject
	if inj.TriggerIndex == e.candCount && st.fire != nil {
		st.fire(e, inj, rip)
		e.armed = false
	}
	e.candCount++
}

// checkActivation is the mask-based form of Machine.checkActivation: a
// read of the corrupted location activates the fault; an overwrite
// without a read kills it.
func (e *Engine) checkActivation(st *step) {
	switch e.watch {
	case watchReg:
		if st.readsRegs&(1<<uint(e.watchReg)) != 0 {
			e.Inject.Activated = true
			e.watch = watchNone
		} else if st.writesRegs&(1<<uint(e.watchReg)) != 0 {
			e.watch = watchNone
		}
	case watchXmm:
		if st.readsXmms&(1<<uint(e.watchXmm)) != 0 {
			e.Inject.Activated = true
			e.watch = watchNone
		} else if st.writesXmms&(1<<uint(e.watchXmm)) != 0 {
			e.watch = watchNone
		}
	case watchFlags:
		if st.condOrSet {
			if st.condMask&e.watchMask != 0 {
				e.Inject.Activated = true
				e.watch = watchNone
			}
			return
		}
		if st.flagSetter {
			e.watch = watchNone
		}
	}
}

func (e *Engine) push(v uint64) error {
	e.regs[x86.RSP] -= 8
	return e.mem.Write(e.regs[x86.RSP], 8, v)
}

func (e *Engine) pop() (uint64, error) {
	v, err := e.mem.Read(e.regs[x86.RSP], 8)
	if err != nil {
		return 0, err
	}
	e.regs[x86.RSP] += 8
	return v, nil
}
