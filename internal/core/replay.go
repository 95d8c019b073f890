package core

import (
	"fmt"
	"sync"

	"hlfi/internal/fault"
	"hlfi/internal/telemetry"
)

// DefaultSnapshotBudget caps the snapshot cache's accounted footprint
// when ReplayConfig.MemBudget is zero.
const DefaultSnapshotBudget = 256 << 20 // 256 MiB

// Auto-stride shape: aim for about snapshotsPerRun snapshots per golden
// run, but never snapshot more often than minSnapshotStride retired
// instructions (tiny programs would otherwise pay more in capture than
// replay saves).
const (
	snapshotsPerRun   = 64
	minSnapshotStride = 512
)

// ReplayConfig enables golden-run snapshot fast-forward replay for a
// study. One config is shared by every cell: the snapshot cache behind
// it is keyed by (program, level) — snapshots are category-agnostic, so
// a single golden capture serves all five categories and the calibrated
// candidate sets. Safe for concurrent cells under Parallel > 1.
//
// Replay is observationally invisible: outcomes, activation status, and
// output bytes are identical to full re-execution under the same seeds.
type ReplayConfig struct {
	// Stride is the snapshot interval in dynamic instructions; 0 picks
	// an automatic per-program stride (goldenInstrs/64, floored at 512).
	Stride uint64
	// MemBudget caps the accounted snapshot bytes retained across all
	// programs; 0 means DefaultSnapshotBudget. When a build pushes the
	// cache over budget, least-recently-used entries are evicted; a
	// single entry larger than the whole budget is thinned (every other
	// snapshot dropped) until it fits or one snapshot remains.
	MemBudget uint64
	// Stats, when non-nil, receives hit/miss/cache accounting: the one
	// owner of the replay facts, which study_done and /metrics read.
	Stats *telemetry.ReplayStats

	once  sync.Once
	cache *snapshotCache
}

// Signature renders the replay configuration for checkpoint headers,
// where it records the creating run's policy as provenance. A nil
// config (replay off) renders as "off".
func (rc *ReplayConfig) Signature() string {
	if rc == nil {
		return "off"
	}
	return fmt.Sprintf("stride=%d;budget=%d", rc.Stride, rc.memBudget())
}

func (rc *ReplayConfig) memBudget() uint64 {
	if rc.MemBudget > 0 {
		return rc.MemBudget
	}
	return DefaultSnapshotBudget
}

func (rc *ReplayConfig) resolveStride(goldenInstrs uint64) uint64 {
	if rc.Stride > 0 {
		return rc.Stride
	}
	s := goldenInstrs / snapshotsPerRun
	if s < minSnapshotStride {
		s = minSnapshotStride
	}
	return s
}

func (rc *ReplayConfig) ensure() *snapshotCache {
	rc.once.Do(func() {
		rc.cache = &snapshotCache{
			budget:  rc.memBudget(),
			entries: make(map[snapKey]*snapEntry),
			stats:   rc.Stats,
		}
	})
	return rc.cache
}

type snapKey struct {
	prog  string
	level fault.Level
}

// snapEntry is one (program, level) cache slot. ready is closed once
// snaps (the level's snapshot slice) and err are final; the slice and
// snapshots are immutable afterwards, so any number of cells may share
// them concurrently.
type snapEntry struct {
	ready   chan struct{}
	err     error
	snaps   any
	count   int
	bytes   uint64
	lastUse uint64
}

// snapshotCache builds golden-run snapshots lazily, once per
// (program, level), and holds them under an LRU memory budget. The
// builder runs on the first requesting goroutine; concurrent requesters
// block on the entry's ready channel. An evicted entry stays usable by
// cells that already hold it — eviction only drops the cache's
// reference so the next request rebuilds.
type snapshotCache struct {
	mu      sync.Mutex
	budget  uint64
	entries map[snapKey]*snapEntry
	tick    uint64
	stats   *telemetry.ReplayStats
}

// lookup returns (entry, true) to wait on, or a fresh unready entry the
// caller must build, already registered under k.
func (sc *snapshotCache) lookup(k snapKey) (*snapEntry, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.tick++
	if e, ok := sc.entries[k]; ok {
		e.lastUse = sc.tick
		return e, true
	}
	e := &snapEntry{ready: make(chan struct{}), lastUse: sc.tick}
	sc.entries[k] = e
	return e, false
}

// snapshot is a golden-run snapshot of either level, as the cache
// budgets it.
type snapshot interface{ Bytes() uint64 }

// cachedSnapshots returns the snapshots of p at one level, capturing
// them with t on a miss at the configured stride.
func cachedSnapshots[S snapshot, C any](rc *ReplayConfig, p *Program, t levelTools[S, C], goldenInstrs uint64) ([]S, error) {
	sc := rc.ensure()
	k := snapKey{prog: p.Name, level: t.level}
	e, hit := sc.lookup(k)
	if hit {
		<-e.ready
		snaps, _ := e.snaps.([]S)
		return snaps, e.err
	}
	snaps, err := t.capture(p, rc.resolveStride(goldenInstrs))
	var b uint64
	if err == nil {
		// Thin an over-budget entry before publishing: dropping every
		// other snapshot halves the accounted bytes while keeping
		// fast-forward coverage of the whole run.
		for snapBytes(snaps) > sc.budget && len(snaps) > 1 {
			snaps = thin(snaps)
		}
		b = snapBytes(snaps)
	}
	sc.seal(k, e, func() {
		if err == nil {
			e.snaps, e.count, e.bytes = snaps, len(snaps), b
		}
		e.err = err
	})
	return snaps, err
}

// seal finalizes a freshly built entry and enforces the memory budget in
// one critical section: publish fills the entry's payload fields, the
// ready channel is closed, least-recently-used ready entries other than
// the newcomer are evicted until the accounted total fits, and the
// post-eviction usage is published to the stats. Filling the entry
// under sc.mu matters: concurrent builders of other keys scan every
// entry's payload while holding the lock (totalLocked,
// publishUsageLocked), and the gauge must never surface a pre-eviction
// footprint after an eviction pass.
func (sc *snapshotCache) seal(k snapKey, e *snapEntry, publish func()) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	publish()
	close(e.ready)
	for sc.totalLocked() > sc.budget {
		victim, vkey := sc.lruLocked(k)
		if victim == nil {
			break
		}
		delete(sc.entries, vkey)
		sc.stats.NoteEviction()
	}
	sc.publishUsageLocked()
}

func (sc *snapshotCache) totalLocked() uint64 {
	var n uint64
	for _, e := range sc.entries {
		n += e.bytes
	}
	return n
}

// lruLocked picks the least-recently-used ready entry, excluding keep.
func (sc *snapshotCache) lruLocked(keep snapKey) (*snapEntry, snapKey) {
	var victim *snapEntry
	var vkey snapKey
	for k, e := range sc.entries {
		if k == keep {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // still building; its builder will call seal
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim, vkey = e, k
		}
	}
	return victim, vkey
}

func (sc *snapshotCache) publishUsageLocked() {
	var bytes, count uint64
	for _, e := range sc.entries {
		bytes += e.bytes
		count += uint64(e.count)
	}
	sc.stats.SetCacheUsage(bytes, count)
}

func snapBytes[S snapshot](snaps []S) uint64 {
	var n uint64
	for _, s := range snaps {
		n += s.Bytes()
	}
	return n
}

// thin keeps every other snapshot, starting with the second (so the
// kept set stays spread over the run rather than clustered early).
func thin[S any](snaps []S) []S {
	out := snaps[:0:len(snaps)]
	for i := 1; i < len(snaps); i += 2 {
		out = append(out, snaps[i])
	}
	return out
}
