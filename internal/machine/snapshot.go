package machine

import (
	"io"

	"hlfi/internal/fault"
	"hlfi/internal/mem"
	"hlfi/internal/rt"
	"hlfi/internal/x86"
)

// Snapshot is a resumable copy of a Machine's complete architectural
// state, captured between two instructions of a golden run. It is
// immutable once captured: any number of replay machines can be built
// from it concurrently with NewFromSnapshot.
type Snapshot struct {
	// The capture point's count, output length and profile; its
	// CandCount is indexed by static instruction index.
	fault.SnapHeader

	mem   *mem.Memory
	regs  [x86.NumRegs]uint64
	xmm   [x86.NumXRegs][2]uint64
	flags uint64
	rip   int
}

// captureSnapshot records the machine's state at the current loop
// boundary and hands it to the sink. Golden runs only: capture is
// skipped while an injection is armed.
func (m *Machine) captureSnapshot() {
	m.nextSnap = m.executed + m.SnapshotEvery
	if m.Inject != nil {
		return
	}
	s := &Snapshot{
		SnapHeader: fault.CaptureHeader(m.executed, m.Profile, m.out),
		mem:        m.mem.Snapshot(),
		regs:       m.regs,
		xmm:        m.xmm,
		flags:      m.flags,
		rip:        m.rip,
	}
	m.SnapshotSink(s)
}

// Bytes is an upper bound on the snapshot's retained memory, used for
// cache budgeting.
func (s *Snapshot) Bytes() uint64 {
	return s.mem.FootprintBytes() + uint64(len(s.Profile))*8 +
		uint64(x86.NumRegs)*8 + uint64(x86.NumXRegs)*16
}

// NewFromSnapshot builds a machine that resumes execution from s,
// writing subsequent program output to out. The caller prefills out
// with the golden output prefix (s.OutLen bytes) when byte-identical
// streams are required. Safe to call concurrently on one snapshot.
func NewFromSnapshot(p *x86.Program, s *Snapshot, out io.Writer) *Machine {
	m := s.mem.Clone()
	mc := &Machine{
		prog:      p,
		mem:       m,
		env:       &rt.Env{Mem: m, Out: out},
		out:       out,
		MaxInstrs: DefaultMaxInstrs,
		depFlags:  DependentFlagMasks(p),
		haltAddr:  mem.CodeBase + uint64(len(p.Instrs))*mem.CodeStride,
		regs:      s.regs,
		xmm:       s.xmm,
		flags:     s.flags,
		rip:       s.rip,
		executed:  s.Executed,
	}
	return mc
}

// SetCandCount seeds the machine's candidate-execution counter, so an
// armed Injection's TriggerIndex means the same dynamic instruction it
// would in a full run. Use Snapshot.CandCount for the baseline.
func (m *Machine) SetCandCount(n uint64) { m.candCount = n }

// Resume continues execution from a snapshot-restored state to
// completion, exactly as the remainder of Run would.
func (m *Machine) Resume() (int64, error) {
	return m.loop()
}
