package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"

	"hlfi/internal/obs"
)

// ReplayStats aggregates snapshot-replay counters for a study. Cells run
// concurrently under the study scheduler and all update it, so every
// field is atomic; all methods are additionally nil-receiver safe so the
// injectors can call them unconditionally. It is the one owner of the
// replay and engine facts: study_done and /metrics both read it.
type ReplayStats struct {
	hits           atomic.Uint64
	misses         atomic.Uint64
	skippedInstrs  atomic.Uint64
	replayedInstrs atomic.Uint64
	converged      atomic.Uint64
	cycled         atomic.Uint64
	compiled       atomic.Uint64
	cacheBytes     atomic.Uint64
	cacheEntries   atomic.Uint64
	evictions      atomic.Uint64
	// restore buckets attempts by the instructions they replayed (over
	// obs.RestoreInstrsBuckets plus +Inf); its sum is replayedInstrs.
	restore [len(obs.RestoreInstrsBuckets) + 1]atomic.Uint64
}

// Hit records one attempt served from a snapshot: skipped instructions
// were fast-forwarded past, replayed instructions were re-executed.
func (s *ReplayStats) Hit(skipped, replayed uint64) {
	if s == nil {
		return
	}
	s.hits.Add(1)
	s.skippedInstrs.Add(skipped)
	s.noteReplayed(replayed)
}

// Miss records one attempt that ran from instruction zero.
func (s *ReplayStats) Miss(executed uint64) {
	if s == nil {
		return
	}
	s.misses.Add(1)
	s.noteReplayed(executed)
}

func (s *ReplayStats) noteReplayed(n uint64) {
	s.replayedInstrs.Add(n)
	s.restore[sort.SearchFloat64s(obs.RestoreInstrsBuckets[:], float64(n))].Add(1)
}

// AttemptEnd is how a compiled-engine attempt ended.
type AttemptEnd int

const (
	// EndRanOut: the attempt ran to the program's exit, an error or the
	// hang budget.
	EndRanOut AttemptEnd = iota
	// EndConverged: it ended at a masking-convergence point, short of
	// the program's exit.
	EndConverged
	// EndCycled: it ended as a hang when its state repeated, short of
	// the hang budget.
	EndCycled
)

// EndOf reads how a compiled engine's attempt ended.
func EndOf(engine interface {
	Converged() bool
	Cycled() bool
}) AttemptEnd {
	switch {
	case engine.Converged():
		return EndConverged
	case engine.Cycled():
		return EndCycled
	}
	return EndRanOut
}

// NoteCompiled counts one attempt a compiled engine executed, and how
// it ended.
func (s *ReplayStats) NoteCompiled(end AttemptEnd) {
	if s == nil {
		return
	}
	s.compiled.Add(1)
	switch end {
	case EndConverged:
		s.converged.Add(1)
	case EndCycled:
		s.cycled.Add(1)
	}
}

// SetCacheUsage publishes the snapshot cache's current footprint.
func (s *ReplayStats) SetCacheUsage(bytes, entries uint64) {
	if s == nil {
		return
	}
	s.cacheBytes.Store(bytes)
	s.cacheEntries.Store(entries)
}

// NoteEviction counts one cache entry dropped under memory pressure.
func (s *ReplayStats) NoteEviction() {
	if s == nil {
		return
	}
	s.evictions.Add(1)
}

// Hits returns the number of snapshot-served attempts.
func (s *ReplayStats) Hits() uint64 { return s.hits.Load() }

// Misses returns the number of full-run attempts.
func (s *ReplayStats) Misses() uint64 { return s.misses.Load() }

// SkippedInstrs returns total instructions fast-forwarded past.
func (s *ReplayStats) SkippedInstrs() uint64 { return s.skippedInstrs.Load() }

// ReplayedInstrs returns total instructions actually executed.
func (s *ReplayStats) ReplayedInstrs() uint64 { return s.replayedInstrs.Load() }

// Converged returns the number of attempts that ended at a
// masking-convergence point.
func (s *ReplayStats) Converged() uint64 { return s.converged.Load() }

// Cycled returns the number of attempts that ended as hangs when their
// state repeated.
func (s *ReplayStats) Cycled() uint64 { return s.cycled.Load() }

// CacheBytes returns the last published cache footprint.
func (s *ReplayStats) CacheBytes() uint64 { return s.cacheBytes.Load() }

// CacheEntries returns the last published cache entry count.
func (s *ReplayStats) CacheEntries() uint64 { return s.cacheEntries.Load() }

// Evictions returns the number of entries dropped under the budget.
func (s *ReplayStats) Evictions() uint64 { return s.evictions.Load() }

// CompiledAttempts returns the number of compiled-engine attempts.
func (s *ReplayStats) CompiledAttempts() uint64 { return s.compiled.Load() }

// RestoreCounts returns the restore-distance distribution: per-bucket
// attempt counts over obs.RestoreInstrsBuckets, the last being +Inf.
func (s *ReplayStats) RestoreCounts() []uint64 {
	out := make([]uint64, len(s.restore))
	for i := range s.restore {
		out[i] = s.restore[i].Load()
	}
	return out
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
