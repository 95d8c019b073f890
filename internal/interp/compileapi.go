package interp

import (
	"hlfi/internal/ir"
	"hlfi/internal/mem"
)

// This file is the read-only surface the compile-to-closure engine
// (internal/compile/irc) builds on. It exposes the Prepared analyses —
// frame plans, GEP stride plans — and read-only views of the snapshot
// state, without letting the compiled engine reach into live
// interpreter internals. The Prepared views are copies or immutable
// data; the snapshot frame views alias the snapshot, which is frozen,
// so a restore copies each frame exactly once into its own layout.

// MinFrameBytes is the modeled call-frame overhead (see minFrameBytes).
// The compiled engine replicates pushFrame exactly, including the rule
// that frames no larger than this are not eagerly mapped.
const MinFrameBytes = minFrameBytes

// FrameSize reports the stack-frame size Prepare computed for f.
func (p *Prepared) FrameSize(f *ir.Function) uint64 {
	return p.frames[f].size
}

// AllocaOffset reports the frame-base offset Prepare assigned to an
// OpAlloca instruction.
func (p *Prepared) AllocaOffset(in *ir.Instr) uint64 {
	return p.frames[in.Parent.Parent].allocas[in]
}

// GEPStep is the exported form of one GEP stride-plan step: either a
// scale for a (sign-extended) dynamic index or a constant struct-field
// offset.
type GEPStep struct {
	Scale   uint64
	Offset  uint64
	IsConst bool
}

// GEPSteps returns the stride plan Prepare built for an OpGEP
// instruction, in operand order.
func (p *Prepared) GEPSteps(in *ir.Instr) []GEPStep {
	plan := p.geps[in]
	out := make([]GEPStep, len(plan.steps))
	for i, s := range plan.steps {
		out[i] = GEPStep{Scale: s.scale, Offset: s.offset, IsConst: s.isConst}
	}
	return out
}

// FrameView is a read-only view of one activation record of a
// Snapshot. Vals and Params alias the snapshot, which any number of
// goroutines may be restoring from at once: a caller copies them and
// never writes through them.
type FrameView struct {
	Fn      *ir.Function
	Blk     *ir.Block
	Idx     int
	Base    uint64
	SavedSP uint64
	Vals    []uint64
	Params  []uint64
}

// CloneMemory materializes a writable copy-on-write clone of the
// snapshot's memory and returns it with the stack pointer. Safe to call
// concurrently on one snapshot, like NewRunnerFromSnapshot.
func (s *Snapshot) CloneMemory() (*mem.Memory, uint64) {
	return s.mem.Clone(), s.sp
}

// NumFrames reports the depth of the snapshot's frame stack.
func (s *Snapshot) NumFrames() int { return len(s.frames) }

// Frame returns a read-only view of frame i, in stack order (bottom
// first).
func (s *Snapshot) Frame(i int) FrameView {
	fs := &s.frames[i]
	return FrameView{
		Fn: fs.fn, Blk: fs.blk, Idx: fs.idx,
		Base: fs.base, SavedSP: fs.savedSP,
		Vals: fs.vals, Params: fs.params,
	}
}

// MatchesMemory reports whether m and sp are exactly the snapshot's
// memory and stack pointer: the memory half of the compiled engine's
// masking-convergence compare, the inverse of CloneMemory. Safe to call
// concurrently on one snapshot.
func (s *Snapshot) MatchesMemory(m *mem.Memory, sp uint64) bool {
	return sp == s.sp && m.Equal(s.mem)
}
