package interp

import (
	"io"

	"hlfi/internal/fault"
	"hlfi/internal/ir"
	"hlfi/internal/mem"
	"hlfi/internal/rt"
)

// Snapshot is a resumable copy of a Runner's complete machine state,
// captured between two instructions of a golden run. It is immutable
// once captured: any number of replay runners can be built from it
// concurrently with NewRunnerFromSnapshot.
type Snapshot struct {
	// The capture point's count, output length and profile; its
	// CandCount is indexed by Seq.
	fault.SnapHeader

	mem    *mem.Memory
	sp     uint64
	frames []frameState
}

// frameState is the serialized form of one activation record.
type frameState struct {
	fn      *ir.Function
	blk     *ir.Block
	prev    *ir.Block
	idx     int
	base    uint64
	savedSP uint64
	vals    []uint64
	params  []uint64
}

// captureSnapshot records the runner's state at the current loop
// boundary and hands it to the sink. Golden runs only: capture is
// skipped while an injection is armed (a corrupted intermediate state
// must never seed a replay).
func (r *Runner) captureSnapshot() {
	r.nextSnap = r.executed + r.SnapshotEvery
	if r.Inject != nil {
		return
	}
	s := &Snapshot{
		SnapHeader: fault.CaptureHeader(r.executed, r.Profile, r.out),
		mem:        r.mem.Snapshot(),
		sp:         r.sp,
		frames:     make([]frameState, len(r.stack)),
	}
	for i, fr := range r.stack {
		s.frames[i] = frameState{
			fn: fr.fn, blk: fr.blk, prev: fr.prev, idx: fr.idx,
			base: fr.base, savedSP: fr.savedSP,
			vals:   append([]uint64(nil), fr.vals...),
			params: append([]uint64(nil), fr.params...),
		}
	}
	r.SnapshotSink(s)
}

// Bytes is an upper bound on the snapshot's retained memory, used for
// cache budgeting. Pages shared with sibling snapshots are charged to
// each, so chains of snapshots over-count — a safe direction for a
// budget.
func (s *Snapshot) Bytes() uint64 {
	n := s.mem.FootprintBytes() + uint64(len(s.Profile))*8
	for _, fr := range s.frames {
		n += uint64(len(fr.vals)+len(fr.params)) * 8
	}
	return n
}

// NewRunnerFromSnapshot builds a runner that resumes execution from s,
// writing subsequent program output to out. The caller is responsible
// for prefilling out with the golden output prefix (s.OutLen bytes) if
// byte-identical streams are required. Safe to call concurrently on
// the same snapshot.
func NewRunnerFromSnapshot(p *Prepared, s *Snapshot, out io.Writer) *Runner {
	m := s.mem.Clone()
	r := &Runner{
		prog:      p,
		mem:       m,
		out:       out,
		MaxInstrs: DefaultMaxInstrs,
		executed:  s.Executed,
		sp:        s.sp,
		stack:     make([]*frame, len(s.frames)),
	}
	r.env = &rt.Env{Mem: m, Out: out}
	for i, fs := range s.frames {
		r.stack[i] = &frame{
			fn: fs.fn, fp: p.frames[fs.fn],
			vals:   append([]uint64(nil), fs.vals...),
			params: append([]uint64(nil), fs.params...),
			base:   fs.base, savedSP: fs.savedSP,
			blk: fs.blk, prev: fs.prev, idx: fs.idx,
		}
	}
	return r
}

// SetCandCount seeds the runner's candidate-execution counter, so an
// armed Injection's TriggerIndex means the same dynamic instruction it
// would in a full run. Use Snapshot.CandCount for the baseline.
func (r *Runner) SetCandCount(n uint64) { r.candCount = n }

// Resume continues execution from a snapshot-restored state to
// completion, exactly as the remainder of Run would.
func (r *Runner) Resume() (int64, error) {
	return r.loop()
}
