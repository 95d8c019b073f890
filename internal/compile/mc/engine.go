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
	// limit is min(MaxInstrs, end of the convergence seek's window,
	// golden length once the cycle watch is armed): the one count the
	// loop compares executed against every step.
	limit uint64
	// armed caches Inject != nil && !Inject.Happened for the loop; it is
	// set when the run starts and cleared when the fault fires.
	armed bool
	// seekRip is the rip of the golden snapshot the convergence seek
	// compares against, or -1: the one position the loop compares rip
	// with every step.
	seekRip int

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
		seekRip:   -1,
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
		seekRip:   -1,
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
// still ahead of the seek, the golden run a converged attempt finishes
// as, and the output stream compared against it; plus the hang-cycle
// watch the same arming call sets up.
type convergence struct {
	snaps  []*machine.Snapshot // the sought snapshot first, once seeking
	prev   uint64              // count of the snapshot (or start) before snaps[0]
	until  uint64              // the seek moves past snaps[0] at this count
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
// a no-op.
//
// Once the injected fault has activated, the engine seeks the next
// snapshot's rip, and keeps seeking it until the run is
// fault.RejoinWindow past the snapshot's count; then it seeks the next
// one. Whenever the run is at the sought rip, the engine compares the
// rest of its state with the snapshot: output length, registers, XMM
// registers and flags, the output bytes, then memory. Equal state means
// the rest of the run is the golden run's tail from that snapshot,
// whatever the count, so the engine stops there if that tail fits the
// hang budget (fault.Golden.TailFits): it appends the rest of the golden
// output and returns the golden exit code, with Executed at the
// convergence point. A tail that does not fit would hang, so the run
// goes on.
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
	e.conv = convergence{snaps: snaps, prev: e.executed, golden: g, out: out, from: out.Len()}
}

// Converged reports whether the run ended at a convergence point.
func (e *Engine) Converged() bool { return e.conv.done }

// Cycled reports whether the run ended as a hang because its state
// repeated.
func (e *Engine) Cycled() bool { return e.conv.cycle.cycled }

// setLimit points limit at the end of the seek's window, or at the
// golden length once Converge armed the cycle watch, or at the hang
// budget.
func (e *Engine) setLimit() {
	e.limit = e.MaxInstrs
	c := &e.conv
	if e.seekRip >= 0 && c.until < e.limit {
		e.limit = c.until
	}
	if c.out != nil && c.golden.Instrs < e.limit {
		e.limit = c.golden.Instrs
	}
}

// seek points the position compare at the first golden snapshot whose
// window the run has not passed, or turns it off past the last one. It
// runs when the fault activates and when a window ends.
func (e *Engine) seek() {
	c := &e.conv
	e.seekRip = -1
	for ; len(c.snaps) > 0; c.snaps = c.snaps[1:] {
		k := c.snaps[0]
		next := c.golden.Instrs
		if len(c.snaps) > 1 {
			next = c.snaps[1].Executed
		}
		if end := k.Executed + fault.RejoinWindow(c.prev, k.Executed, next); e.executed <= end {
			e.seekRip, c.until = k.Rip(), end+1
			break
		}
		c.prev = k.Executed
	}
	e.setLimit()
}

// activate records that the fault's corrupted location has been read and
// starts the convergence seek.
func (e *Engine) activate() {
	e.Inject.Activated = true
	e.watch = watchNone
	e.seek()
}

// atLimit is the slow path of the loop's budget compare below the hang
// budget: the seek's window has ended, or the run is past the golden
// length and the cycle watch compares this step. It reports whether the
// cycle watch found the run's state repeated.
func (e *Engine) atLimit() bool {
	c := &e.conv
	if e.seekRip >= 0 && e.executed >= c.until {
		e.seek()
	}
	return e.executed >= c.golden.Instrs && e.cycled()
}

// rejoined compares the engine's state with the sought snapshot, which
// the run is at the position of, cheapest parts first.
func (e *Engine) rejoined() bool {
	c := &e.conv
	k := c.snaps[0]
	if c.out.Len() != k.OutLen || !k.MatchesRegs(&e.regs, &e.xmm, e.flags) ||
		!bytes.Equal(c.out.Bytes()[c.from:], c.golden.Output[c.from:k.OutLen]) ||
		!k.MatchesMemory(e.mem) || !c.golden.TailFits(e.executed, k.Executed, e.MaxInstrs) {
		return false
	}
	c.out.Write(c.golden.Output[k.OutLen:])
	c.done = true
	return true
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
		!w.state.MatchesRegs(&e.regs, &e.xmm, e.flags) || !w.state.MatchesMemory(e.mem) {
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
	e.setLimit()
	steps := e.cp.steps
	for {
		rip := e.rip
		if rip < 0 || rip >= len(steps) {
			return 0, &mem.Fault{Kind: mem.FaultBadCodeAddr, Addr: mem.CodeBase + uint64(rip)*mem.CodeStride}
		}
		if e.executed >= e.limit {
			if e.executed >= e.MaxInstrs || e.atLimit() {
				return 0, machine.ErrHang
			}
		}
		if rip == e.seekRip && e.rejoined() {
			return e.conv.golden.Exit, nil
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
		if inj.Activated {
			e.seek() // the record came in activated
		}
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
			e.activate()
		} else if st.writesRegs&(1<<uint(e.watchReg)) != 0 {
			e.watch = watchNone
		}
	case watchXmm:
		if st.readsXmms&(1<<uint(e.watchXmm)) != 0 {
			e.activate()
		} else if st.writesXmms&(1<<uint(e.watchXmm)) != 0 {
			e.watch = watchNone
		}
	case watchFlags:
		if st.condOrSet {
			if st.condMask&e.watchMask != 0 {
				e.activate()
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
