package mc

import (
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
	// limit is conv.Limit(MaxInstrs): the one count the loop compares
	// executed against every step.
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

// convergence is the masking-convergence and hang-cycle arm: the
// shared schedule, plus the state saved at the start of the cycle
// watch's window. Its rip is compared every step once the run is past
// the golden length; its registers, flags and memory on a rip match.
type convergence struct {
	fault.Convergence[*machine.Snapshot]
	cycleState *machine.Snapshot
}

// Converge arms masking convergence and the hang-cycle watch under the
// shared schedule of fault.Convergence. snaps are the golden run's
// snapshots after the point the engine starts from, in capture order;
// g is that golden run. The engine's output stream must be a
// *bytes.Buffer already holding the golden output up to the start
// point, as the injectors' replay path writes it; otherwise Converge is
// a no-op.
//
// Once the injected fault has activated, the engine seeks each
// snapshot's rip in turn. Whenever the run is at the sought rip, the
// engine compares the rest of its state with the snapshot: registers,
// XMM registers and flags, then memory. Equal state (with equal output)
// means the rest of the run is the golden run's tail from that
// snapshot, whatever the count, so the engine stops there if that tail
// fits the hang budget, with the golden output and exit code and
// Executed at the convergence point.
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
	e.conv = convergence{Convergence: fault.NewConvergence(snaps, g, e.env.Out, e.executed)}
}

// Converged reports whether the run ended at a convergence point.
func (e *Engine) Converged() bool { return e.conv.Converged() }

// Cycled reports whether the run ended as a hang because its state
// repeated.
func (e *Engine) Cycled() bool { return e.conv.Cycled() }

// setLimit points limit at the shared schedule's next stop.
func (e *Engine) setLimit() { e.limit = e.conv.Limit(e.MaxInstrs) }

// seek points the rip compare at the snapshot the schedule seeks next,
// or turns it off past the last one. It runs when the fault activates
// and when a window ends.
func (e *Engine) seek() {
	e.seekRip = -1
	if k, ok := e.conv.Seek(e.executed); ok {
		e.seekRip = k.Rip()
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
	if e.conv.Expired(e.executed) {
		e.seek()
	}
	return e.conv.Watching(e.executed) && e.cycled()
}

// rejoined reports whether the run, at the sought snapshot's rip, has
// rejoined it. The registers and flags, which a diverged run rarely
// gets past, are compared inline; then the shared compare of the
// output, and memory.
func (e *Engine) rejoined() bool {
	c := &e.conv
	if !c.Sought().MatchesRegs(&e.regs, &e.xmm, e.flags) {
		return false
	}
	return c.Rejoined(e.executed, e.MaxInstrs, func(k *machine.Snapshot) bool { return k.MatchesMemory(e.mem) })
}

// cycled is one step of the cycle watch: at the start of a window it
// saves the engine's state; inside one it compares the engine's state
// with the saved state, rip first.
func (e *Engine) cycled() bool {
	c := &e.conv
	if c.NewWindow(e.executed, e.candCount) {
		c.cycleState = machine.FreezeState(e.mem, &e.regs, &e.xmm, e.flags, e.rip)
		return false
	}
	if e.rip != c.cycleState.Rip() {
		return false
	}
	return c.Repeated(e.candCount, func() bool {
		return c.cycleState.MatchesRegs(&e.regs, &e.xmm, e.flags) && c.cycleState.MatchesMemory(e.mem)
	})
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
			return e.conv.Exit(), nil
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
