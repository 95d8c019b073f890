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
	// limit is min(MaxInstrs, next convergence boundary): the one count
	// the loop compares executed against every step.
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
// as, and the output stream compared against it.
type convergence struct {
	snaps  []*machine.Snapshot
	golden fault.Golden
	out    *bytes.Buffer
	from   int // out.Len() when armed: the restore point's OutLen
	done   bool
}

// Converge arms masking convergence. snaps are the golden run's
// snapshots after the point the engine starts from, in capture order;
// g is that golden run. The engine's output stream must be a
// *bytes.Buffer already holding the golden output up to the start
// point, as the injectors' replay path writes it; otherwise Converge is
// a no-op. So is a hang budget below the golden run's length.
//
// At each snapshot boundary, once the injected fault has activated,
// the engine compares its whole state with the snapshot: output so
// far, registers, XMM registers, flags, rip and memory. Equal state at
// an equal dynamic count means the rest of the run is the golden run,
// so the engine stops there: it appends the rest of the golden output
// and returns the golden exit code, with Executed at the convergence
// point. Outcome, output, error, injection record and RNG state are
// those of the full run.
func (e *Engine) Converge(snaps []*machine.Snapshot, g fault.Golden) {
	out, ok := e.env.Out.(*bytes.Buffer)
	if !ok {
		return
	}
	e.conv = convergence{snaps: snaps, golden: g, out: out, from: out.Len()}
}

// Converged reports whether the run ended at a convergence point.
func (e *Engine) Converged() bool { return e.conv.done }

// setLimit points limit at the next convergence boundary, or at the
// hang budget when none is left.
func (e *Engine) setLimit() {
	e.limit = e.MaxInstrs
	if c := &e.conv; len(c.snaps) > 0 && c.snaps[0].Executed < e.limit {
		e.limit = c.snaps[0].Executed
	}
}

// rejoined is the slow path of the loop's budget compare below the
// hang budget, so a boundary is due: it checks that boundary and moves
// limit on to the next. Machine instructions retire one at a time, so
// the run meets every boundary after its start exactly.
func (e *Engine) rejoined() bool {
	c := &e.conv
	k := c.snaps[0]
	c.snaps = c.snaps[1:]
	if k.Executed == e.executed && e.Inject != nil && e.Inject.Activated && e.matches(k) {
		c.out.Write(c.golden.Output[k.OutLen:])
		c.done = true
		return true
	}
	e.setLimit()
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
			if e.rejoined() {
				return e.conv.golden.Exit, nil
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
