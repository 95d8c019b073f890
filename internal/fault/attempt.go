package fault

import (
	"bytes"
	"io"
	"sort"
)

// The rules of one injected attempt that do not depend on the level.
// LLFI and PINFI, and each level's reference and compiled engines, all
// run and end their attempts by these, so the two injectors' outcome
// rates compare.

// HangFactor scales the golden instruction count into the hang budget
// (the paper's "substantially longer than the golden run" timeout).
const HangFactor = 20

// Budget is the hang budget of an injected run: a run that has not
// finished after this many dynamic instructions is a Hang.
func (g Golden) Budget() uint64 { return g.Instrs*HangFactor + 1_000_000 }

// SnapHeader is the level-independent part of a golden-run snapshot,
// which interp.Snapshot and machine.Snapshot embed.
type SnapHeader struct {
	// Executed is the dynamic instruction count at the capture point.
	Executed uint64
	// OutLen is how many bytes the program had written to its output
	// stream at the capture point (captured when the sink is a
	// bytes.Buffer, as in the injectors' golden runs).
	OutLen int
	// Profile is a copy of the per-static-instruction execution counts
	// at the capture point. It lets a replay compute, for any candidate
	// set, how many candidate executions precede the snapshot, so one
	// snapshot serves every fault category.
	Profile []uint64
}

// CaptureHeader is the header of a snapshot taken after executed
// instructions, with profile the run's execution counts so far (nil
// when the run is not profiled) and out its output stream.
func CaptureHeader(executed uint64, profile []uint64, out io.Writer) SnapHeader {
	h := SnapHeader{Executed: executed, Profile: append([]uint64(nil), profile...)}
	if b, ok := out.(*bytes.Buffer); ok {
		h.OutLen = b.Len()
	}
	return h
}

// Header returns the header itself, so that code generic over the
// snapshot types reaches it through any snapshot that embeds it.
func (h *SnapHeader) Header() *SnapHeader { return h }

// CandCount reports how many executions of candidate instructions
// precede the snapshot: the candidate count a full run has reached at
// the capture point. candidates is indexed like Profile.
func (h *SnapHeader) CandCount(candidates []bool) uint64 {
	var n uint64
	for i, c := range candidates {
		if c && i < len(h.Profile) {
			n += h.Profile[i]
		}
	}
	return n
}

// Snap is a golden-run snapshot of either level.
type Snap interface{ Header() *SnapHeader }

// Replay is an injector's index over a golden run's snapshots, in
// capture order, for its candidate set: the candidate count each
// snapshot has passed. The counts rise with the snapshots, so an
// attempt finds the latest snapshot at or before its trigger by binary
// search.
type Replay[S Snap] struct {
	Snaps []S
	bases []uint64
}

// NewReplay indexes snaps for a candidate set.
func NewReplay[S Snap](snaps []S, candidates []bool) Replay[S] {
	r := Replay[S]{Snaps: snaps, bases: make([]uint64, len(snaps))}
	for i, s := range snaps {
		r.bases[i] = s.Header().CandCount(candidates)
	}
	return r
}

// Before returns the index of the latest snapshot whose candidate count
// is at or below trigger, and that count, which seeds the restored
// run's candidate counter; i is -1 when the trigger comes before every
// snapshot. Snaps[i+1:] are the snapshots the attempt may rejoin.
func (r *Replay[S]) Before(trigger uint64) (i int, base uint64) {
	i = sort.Search(len(r.bases), func(k int) bool { return r.bases[k] > trigger }) - 1
	if i >= 0 {
		base = r.bases[i]
	}
	return i, base
}

// RejoinWindow is how far past the count at of a golden snapshot a
// compiled attempt keeps seeking that snapshot's position, given the
// counts prev and next of the snapshots (or run ends) around it: a
// quarter of the spacing before it, and at most half the spacing after
// it, so that the next snapshot is sought before its own count. The
// snapshots' real spacing sets it, because thinning and cache budgets
// space snapshots unevenly.
func RejoinWindow(prev, at, next uint64) uint64 { return min((at-prev)/4, (next-at)/2) }

// TailFits reports whether a run that has executed executed
// instructions and is in the golden run's state at count at finishes
// within budget: the rest of it is the golden run's tail from at.
func (g Golden) TailFits(executed, at, budget uint64) bool {
	return executed+(g.Instrs-at) <= budget
}

// firstCycleWindow is the length of the cycle watch's first window.
// Saving a window costs a frozen snapshot of memory, so windows start
// long enough to amortise it; every hang cycle the benchmarks produce
// has a period well below it.
const firstCycleWindow = 1024

// Convergence is the level-independent half of a compiled attempt's
// masking-convergence seek and hang-cycle watch (docs/replay.md): which
// golden snapshot the attempt seeks and until when, the count the
// engine's loop stops at to look again, the golden tail a rejoined
// attempt finishes with, and the windows of the cycle watch. The
// engines keep only their own position compare, state compare and
// saved state, and call it only on their slow path.
type Convergence[S Snap] struct {
	snaps   []S         // the sought snapshot first, once seeking
	sought  *SnapHeader // snaps[0]'s header, once seeking
	prev    uint64      // count of the snapshot (or start) before snaps[0]
	until   uint64      // the seek moves past snaps[0] at this count
	seeking bool
	golden  Golden
	out     *bytes.Buffer
	from    int // out.Len() when armed: the restore point's OutLen
	done    bool

	// The cycle watch's window schedule and the level-independent part
	// of the state saved at the start of the current window.
	cycled    bool
	next      uint64 // executed at which the next window starts
	window    uint64 // length of the current window
	outLen    int
	candCount uint64
}

// NewConvergence arms convergence and the cycle watch for a run that
// has executed executed instructions and writes to out. snaps are the
// golden run's snapshots after that point, in capture order, and g is
// that golden run. out must be a *bytes.Buffer already holding the
// golden output up to that point, as the injectors' replay path writes
// it; for any other stream the result is unarmed: it never seeks and
// never watches.
func NewConvergence[S Snap](snaps []S, g Golden, out io.Writer, executed uint64) Convergence[S] {
	b, ok := out.(*bytes.Buffer)
	if !ok {
		return Convergence[S]{}
	}
	return Convergence[S]{snaps: snaps, prev: executed, golden: g, out: b, from: b.Len()}
}

// Converged reports whether the run ended at a convergence point.
func (c *Convergence[S]) Converged() bool { return c.done }

// Cycled reports whether the run ended as a hang because its state
// repeated.
func (c *Convergence[S]) Cycled() bool { return c.cycled }

// Exit is the golden run's exit code, which a rejoined run returns.
func (c *Convergence[S]) Exit() int64 { return c.golden.Exit }

// Seek moves the seek to the first snapshot whose rejoin window the
// run, at executed, has not passed, and returns it: the engine points
// its position compare at that snapshot's position. Past the last one
// it returns ok false, and the seek is off. The engine calls it when
// the fault activates and when Expired reports that a window ended.
func (c *Convergence[S]) Seek(executed uint64) (k S, ok bool) {
	c.seeking = false
	for ; len(c.snaps) > 0; c.snaps = c.snaps[1:] {
		h := c.snaps[0].Header()
		next := c.golden.Instrs
		if len(c.snaps) > 1 {
			next = c.snaps[1].Header().Executed
		}
		if end := h.Executed + RejoinWindow(c.prev, h.Executed, next); executed <= end {
			c.sought, c.until, c.seeking = h, end+1, true
			return c.snaps[0], true
		}
		c.prev = h.Executed
	}
	return k, false
}

// Sought is the snapshot the seek is on, for the engine's inline
// compare of the cheapest part of its state before it calls Rejoined.
func (c *Convergence[S]) Sought() S { return c.snaps[0] }

// Limit is the count the engine's loop compares executed against every
// step: the least of budget, the end of the seek's window, and the
// golden length once the cycle watch is armed. At budget the run is a
// Hang; below it the engine asks Expired and Watching what to do.
func (c *Convergence[S]) Limit(budget uint64) uint64 {
	limit := budget
	if c.seeking && c.until < limit {
		limit = c.until
	}
	if c.out != nil && c.golden.Instrs < limit {
		limit = c.golden.Instrs
	}
	return limit
}

// Expired reports whether the sought snapshot's window has ended at
// executed, so the engine must Seek again.
func (c *Convergence[S]) Expired(executed uint64) bool { return c.seeking && executed >= c.until }

// Watching reports whether the cycle watch runs at executed: once the
// run has executed as many instructions as the golden run.
func (c *Convergence[S]) Watching(executed uint64) bool { return executed >= c.golden.Instrs }

// Rejoined reports whether the run, at the sought snapshot's position
// after executed instructions, has rejoined the golden run. The output
// so far must equal the golden output up to the snapshot, same (the
// engine's compare of the rest of its state) must accept the snapshot,
// and the golden tail from there must fit budget: a tail that does not
// would hang, so the run goes on. A rejoined run is the golden run from
// there on, so Rejoined appends the rest of the golden output, and the
// engine returns Exit with Executed at the convergence point.
func (c *Convergence[S]) Rejoined(executed, budget uint64, same func(S) bool) bool {
	h := c.sought
	if c.out.Len() != h.OutLen || !bytes.Equal(c.out.Bytes()[c.from:], c.golden.Output[c.from:h.OutLen]) ||
		!same(c.snaps[0]) || !c.golden.TailFits(executed, h.Executed, budget) {
		return false
	}
	c.out.Write(c.golden.Output[h.OutLen:])
	c.done = true
	return true
}

// NewWindow reports whether a window of the cycle watch starts at
// executed; the engine then saves its state, and otherwise compares its
// state with the saved one. Windows double in length from
// firstCycleWindow (Brent's cycle finding), so a run that enters a
// cycle of period p is caught within about twice max(p, first window)
// instructions of entering it. candCount is the run's candidate count,
// saved with the output length.
func (c *Convergence[S]) NewWindow(executed, candCount uint64) bool {
	if executed < c.next {
		return false
	}
	c.window = max(2*c.window, firstCycleWindow)
	c.next = executed + c.window
	c.outLen, c.candCount = c.out.Len(), candCount
	return true
}

// Repeated reports whether the run, at the position saved at the start
// of the window, repeats the saved state: the same output length and
// candidate count, and same (the engine's compare of the rest of its
// state). A deterministic run that revisits a state loops forever, so
// it must reach the hang budget: the engine stops it there as a Hang.
func (c *Convergence[S]) Repeated(candCount uint64, same func() bool) bool {
	if c.out.Len() != c.outLen || candCount != c.candCount || !same() {
		return false
	}
	c.cycled = true
	return true
}
