// Package telemetry records machine-readable campaign run records: a
// structured event stream with one record per study phase and campaign
// cell. Sinks are composable — a JSONL file for offline analysis and
// regression tracking, plus an in-memory aggregator that renders the
// human summary (slowest cells, aggregate throughput).
//
// A study emits, in canonical cell order regardless of how cells were
// scheduled: one study_start, one cell_done or cell_skip per cell, and
// one study_done. Events carry durations rather than wall-clock
// timestamps, so two runs of the same study differ only in the timing
// fields.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event types.
const (
	EventStudyStart = "study_start"
	EventCellDone   = "cell_done"
	EventCellSkip   = "cell_skip"
	EventStudyDone  = "study_done"

	// Fault-tolerance events. sim_fault records one contained simulator
	// panic (emitted before its cell's cell_done); cell_resume replaces
	// cell_done for a cell restored from a checkpoint; cell_deadline
	// marks a cell dropped by the wall-clock watchdog; study_abort
	// replaces study_done when the study is cancelled.
	EventSimFault     = "sim_fault"
	EventCellResume   = "cell_resume"
	EventCellDeadline = "cell_deadline"
	EventStudyAbort   = "study_abort"

	// EventAttemptTrace carries one traced attempt's fault-propagation
	// span skeleton (emitted before its cell's cell_done, in attempt
	// order, when tracing is armed).
	EventAttemptTrace = "attempt_trace"

	// Fleet events, emitted by the campaign coordinator (never by
	// studies) in coordinator decision order. fleet_lease records a cell
	// handed to a worker; fleet_lease_expire a lease whose worker went
	// silent past its deadline; fleet_requeue a failed or expired cell
	// put back in the queue (Retries counts grants so far);
	// fleet_duplicate a completion for a cell that already has a result
	// (dropped — deterministic cells make duplicates benign). The
	// Aggregator ignores all four: its summary describes study
	// execution, and fleet churn by design never changes results.
	EventFleetLease       = "fleet_lease"
	EventFleetLeaseExpire = "fleet_lease_expire"
	EventFleetRequeue     = "fleet_requeue"
	EventFleetDuplicate   = "fleet_duplicate"

	// Adaptive-sampling events. adaptive_plan records the stratified
	// reallocation computed after round 1 (budget saved by early-stopped
	// cells, budget granted to the widest unconverged cells);
	// cell_extend records one cell's round-2 extension, carrying DELTA
	// counts over its round-1 cell_done so totals stay additive.
	EventAdaptivePlan = "adaptive_plan"
	EventCellExtend   = "cell_extend"

	// EventWarehouseHit replaces cell_done (or cell_extend) for a cell
	// resolved from the content-addressed result warehouse: the record
	// carries the cached counts but represents zero executed injections,
	// so the Aggregator counts hits separately and excludes them from
	// the attempt totals (mirroring cell_resume).
	EventWarehouseHit = "warehouse_hit"
)

// TraceSpan is one edge of a traced attempt's propagation skeleton:
// the injection site, the first corrupted load, store, or branch, and
// the outcome edge, in execution order.
type TraceSpan struct {
	// Kind is "inject", "load", "store", "branch", or "outcome".
	Kind string `json:"kind"`
	// Site describes the instruction (or, for "outcome", the outcome
	// class) in the level's own rendering.
	Site string `json:"site"`
	// At is the dynamic instruction index of the span.
	At uint64 `json:"at,omitempty"`
}

// Event is one record of a campaign's event stream.
type Event struct {
	Type string `json:"type"`

	// Cell identity (cell_done, cell_skip). Variant is the cell's
	// core.Variant, absent (0) on every paper cell.
	Benchmark string `json:"benchmark,omitempty"`
	Level     string `json:"level,omitempty"`
	Category  string `json:"category,omitempty"`
	Variant   int    `json:"variant,omitempty"`

	// Study shape (study_start; Cells repeated on study_done with the
	// number of completed cells). Shard is the worker's "i/N" spec when
	// the study is one shard of a sharded campaign.
	N        int    `json:"n,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Cells    int    `json:"cells,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
	Shard    string `json:"shard,omitempty"`

	// Timing. ScanMS covers injector construction (the candidate scan
	// plus replay/compiled arming); DurationMS the whole cell or study.
	DurationMS float64 `json:"durationMs,omitempty"`
	ScanMS     float64 `json:"scanMs,omitempty"`

	// Outcome accounting (cell_done; totals repeated on study_done).
	Attempts       int     `json:"attempts,omitempty"`
	Activated      int     `json:"activated,omitempty"`
	ActivationRate float64 `json:"activationRate,omitempty"`
	Benign         int     `json:"benign,omitempty"`
	SDC            int     `json:"sdc,omitempty"`
	Crash          int     `json:"crash,omitempty"`
	Hang           int     `json:"hang,omitempty"`
	NotActivated   int     `json:"notActivated,omitempty"`

	// Err explains a skipped cell.
	Err string `json:"err,omitempty"`

	// Contained-panic detail (sim_fault): the attempt index, the seed
	// that reproduces the panic (the campaign seed, whose one stream is
	// replayed up to the attempt), and the stringified panic value.
	// SimFaults repeats the per-cell total on cell_done.
	Attempt     int    `json:"attempt,omitempty"`
	AttemptSeed int64  `json:"attemptSeed,omitempty"`
	Panic       string `json:"panic,omitempty"`
	SimFaults   int    `json:"simFaults,omitempty"`

	// Fault-propagation trace (attempt_trace): the dynamic candidate
	// index injected at, the attempt's outcome class, and the span
	// skeleton from injection to outcome.
	Trigger uint64      `json:"trigger,omitempty"`
	Outcome string      `json:"outcome,omitempty"`
	Spans   []TraceSpan `json:"spans,omitempty"`

	// Fleet fields (fleet_* events): the worker holding or losing the
	// lease, the lease id, and how many times the cell has been granted.
	Worker  string `json:"worker,omitempty"`
	Lease   uint64 `json:"lease,omitempty"`
	Retries int    `json:"retries,omitempty"`

	// Adaptive-sampling fields. AdaptiveTarget and AdaptiveConverged
	// annotate cell_done/cell_extend records of adaptive cells; the
	// plan-level budget ledger rides on adaptive_plan.
	AdaptiveTarget         int  `json:"adaptiveTarget,omitempty"`
	AdaptiveConverged      bool `json:"adaptiveConverged,omitempty"`
	AdaptiveSaved          int  `json:"adaptiveSaved,omitempty"`
	AdaptiveGranted        int  `json:"adaptiveGranted,omitempty"`
	AdaptiveLeftover       int  `json:"adaptiveLeftover,omitempty"`
	AdaptiveConvergedCells int  `json:"adaptiveConvergedCells,omitempty"`
	AdaptiveExtendedCells  int  `json:"adaptiveExtendedCells,omitempty"`

	// Snapshot-replay accounting (study_done, when replay was enabled).
	ReplayHits         uint64 `json:"replayHits,omitempty"`
	ReplayMisses       uint64 `json:"replayMisses,omitempty"`
	SkippedInstrs      uint64 `json:"skippedInstrs,omitempty"`
	ReplayedInstrs     uint64 `json:"replayedInstrs,omitempty"`
	ConvergedAttempts  uint64 `json:"convergedAttempts,omitempty"`
	CycledAttempts     uint64 `json:"cycledAttempts,omitempty"`
	SnapshotCacheBytes uint64 `json:"snapshotCacheBytes,omitempty"`
	SnapshotEvictions  uint64 `json:"snapshotEvictions,omitempty"`
}

// ReplayFields copies a ReplayStats snapshot into the event (no-op for a
// nil or never-used stats object, keeping omitempty encodings clean).
func (e *Event) ReplayFields(s *ReplayStats) {
	if s == nil || s.Hits()+s.Misses() == 0 {
		return
	}
	e.ReplayHits = s.Hits()
	e.ReplayMisses = s.Misses()
	e.SkippedInstrs = s.SkippedInstrs()
	e.ReplayedInstrs = s.ReplayedInstrs()
	e.ConvergedAttempts = s.Converged()
	e.CycledAttempts = s.Cycled()
	e.SnapshotCacheBytes = s.CacheBytes()
	e.SnapshotEvictions = s.Evictions()
}

// Ms converts a duration to the milliseconds used by Event fields.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Recorder consumes telemetry events. Implementations must be safe for
// concurrent use.
type Recorder interface {
	Record(Event)
}

// Flusher is the optional Recorder extension for sinks that can force
// recorded events to durable storage (fsync for files, Flush for
// buffered writers). The study's abort path flushes before and after
// emitting study_abort so the event stream's tail survives the
// imminent process exit.
type Flusher interface {
	Flush() error
}

// Flush flushes r if it is flush-capable (Multi fans the flush out to
// every capable recorder behind it). Nil-safe; returns the first error.
func Flush(r Recorder) error {
	if f, ok := r.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Multi fans every event out to all recorders (nils are dropped).
func Multi(rs ...Recorder) Recorder {
	var live multi
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return live
}

type multi []Recorder

func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// Flush fans out to every flush-capable recorder and returns the first
// error.
func (m multi) Flush() error {
	var first error
	for _, r := range m {
		if err := Flush(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JSONLSink writes one JSON object per line to an io.Writer.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewJSONLSink wraps w; the caller owns closing it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, enc: json.NewEncoder(w)}
}

// Record appends the event as one JSONL line. Encoding errors are
// swallowed: telemetry must never fail a campaign.
func (s *JSONLSink) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// Flush forces recorded events to durable storage: an *os.File is
// fsynced, a buffered writer flushed; other writers (already unbuffered)
// need nothing. The sink lock is held so a flush never interleaves with
// a partially written line.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch w := s.w.(type) {
	case interface{ Sync() error }:
		return w.Sync()
	case interface{ Flush() error }:
		return w.Flush()
	}
	return nil
}

// cellRecord is one released cell in the combined arrival-order list
// behind Status: freshly completed (cell_done) or restored from a
// checkpoint (cell_resume).
type cellRecord struct {
	e          Event
	resumed    bool
	warehoused bool
}

// Aggregator accumulates the event stream in memory and renders the
// campaign summary.
type Aggregator struct {
	mu         sync.Mutex
	start      Event
	done       Event
	cells      []Event
	skips      []Event
	resumes    []Event
	warehouses []Event
	deadlines  []Event
	simFaults  []Event
	traces     int
	spans      int
	abort      *Event
	extends    []Event
	plan       *Event
	// ordered interleaves cell_done and cell_resume (and, in
	// orderedSkips, cell_skip and cell_deadline) in arrival order. The
	// study's reorder buffer releases events in canonical cell order, so
	// arrival order IS canonical order — the per-type slices above lose
	// that interleaving, which is why Status reads these instead.
	ordered      []cellRecord
	orderedSkips []Event
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Record consumes one event.
func (a *Aggregator) Record(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Type {
	case EventStudyStart:
		a.start = e
	case EventCellDone:
		a.cells = append(a.cells, e)
		a.ordered = append(a.ordered, cellRecord{e: e})
	case EventCellSkip:
		a.skips = append(a.skips, e)
		a.orderedSkips = append(a.orderedSkips, e)
	case EventCellResume:
		a.resumes = append(a.resumes, e)
		a.ordered = append(a.ordered, cellRecord{e: e, resumed: true})
	case EventWarehouseHit:
		// Warehouse hits carry cached counts but zero executed
		// injections; like resumes they are listed, not totalled.
		a.warehouses = append(a.warehouses, e)
		a.ordered = append(a.ordered, cellRecord{e: e, warehoused: true})
	case EventCellDeadline:
		a.deadlines = append(a.deadlines, e)
		a.orderedSkips = append(a.orderedSkips, e)
	case EventSimFault:
		a.simFaults = append(a.simFaults, e)
	case EventAttemptTrace:
		// Traces are counted, not retained: a traced study can carry
		// thousands of them and the JSONL sink is the archival path.
		a.traces++
		a.spans += len(e.Spans)
	case EventCellExtend:
		// Extensions carry delta counts, so adding them to the cell_done
		// totals keeps Totals exact for adaptive studies.
		a.extends = append(a.extends, e)
	case EventAdaptivePlan:
		p := e
		a.plan = &p
	case EventStudyDone:
		a.done = e
	case EventStudyAbort:
		ab := e
		a.abort = &ab
	}
}

// SimFaults returns a copy of the recorded sim_fault events.
func (a *Aggregator) SimFaults() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Event(nil), a.simFaults...)
}

// Warehoused returns the number of cells resolved from the result
// warehouse (zero injections executed).
func (a *Aggregator) Warehoused() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.warehouses)
}

// Spans returns the number of spans across all attempt_trace events.
func (a *Aggregator) Spans() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spans
}

// Plan returns the recorded adaptive_plan event, or the zero Event if
// the study planned no round 2.
func (a *Aggregator) Plan() Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.plan == nil {
		return Event{}
	}
	return *a.plan
}

// Cells returns a copy of the recorded cell_done events.
func (a *Aggregator) Cells() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Event(nil), a.cells...)
}

// totalsLocked sums attempts and activated injections over all
// completed cells and extensions.
func (a *Aggregator) totalsLocked() (attempts, activated int) {
	for _, c := range a.cells {
		attempts += c.Attempts
		activated += c.Activated
	}
	for _, c := range a.extends {
		attempts += c.Attempts
		activated += c.Activated
	}
	return attempts, activated
}

// SlowestCells returns up to k cell_done events ordered by descending
// duration (ties broken by cell identity for stable output).
func (a *Aggregator) SlowestCells(k int) []Event {
	cells := a.Cells()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].DurationMS != cells[j].DurationMS {
			return cells[i].DurationMS > cells[j].DurationMS
		}
		return cellID(cells[i]) < cellID(cells[j])
	})
	if k < len(cells) {
		cells = cells[:k]
	}
	return cells
}

func cellID(e Event) string {
	return fmt.Sprintf("%s/%s/%s/%d", e.Benchmark, e.Level, e.Category, e.Variant)
}

// RenderTelemetry renders the campaign summary: totals, aggregate
// throughput, and the slowest cells.
func (a *Aggregator) RenderTelemetry() string {
	a.mu.Lock()
	cells := len(a.cells)
	skips := len(a.skips)
	resumes := len(a.resumes)
	warehouses := len(a.warehouses)
	deadlines := len(a.deadlines)
	simFaults := len(a.simFaults)
	traces := a.traces
	aborted := a.abort != nil
	attempts, activated := a.totalsLocked()
	var compute, scan float64
	for _, c := range a.cells {
		compute += c.DurationMS
		scan += c.ScanMS
	}
	wall := a.done.DurationMS
	parallel := a.start.Parallel
	var plan *Event
	if a.plan != nil {
		p := *a.plan
		plan = &p
	}
	a.mu.Unlock()

	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign telemetry (%d cells, %d skipped; %d cells in flight)\n",
		cells, skips, parallel)
	if resumes > 0 {
		fmt.Fprintf(&sb, "  resumed from checkpoint: %d cells (not recomputed)\n", resumes)
	}
	if warehouses > 0 {
		fmt.Fprintf(&sb, "  warehouse hits        : %d cells (not recomputed)\n", warehouses)
	}
	if simFaults > 0 {
		fmt.Fprintf(&sb, "  simulator panics contained: %d (see sim_fault events for seeds)\n", simFaults)
	}
	if deadlines > 0 {
		fmt.Fprintf(&sb, "  cells dropped at deadline: %d\n", deadlines)
	}
	if traces > 0 {
		fmt.Fprintf(&sb, "  attempt traces recorded: %d (see attempt_trace events)\n", traces)
	}
	if plan != nil {
		fmt.Fprintf(&sb, "  adaptive sampling     : %d cells converged early (saved %d activated); %d extended (+%d granted, %d leftover)\n",
			plan.AdaptiveConvergedCells, plan.AdaptiveSaved,
			plan.AdaptiveExtendedCells, plan.AdaptiveGranted, plan.AdaptiveLeftover)
	}
	if aborted {
		fmt.Fprintf(&sb, "  STUDY ABORTED: results below cover the completed prefix only\n")
	}
	rate := 0.0
	if attempts > 0 {
		rate = 100 * float64(activated) / float64(attempts)
	}
	fmt.Fprintf(&sb, "  injections attempted  : %d (%d activated, %.1f%%)\n", attempts, activated, rate)
	fmt.Fprintf(&sb, "  cell compute time     : %s (candidate scans %s)\n",
		fmtMS(compute), fmtMS(scan))
	if wall > 0 {
		fmt.Fprintf(&sb, "  study wall clock      : %s\n", fmtMS(wall))
		fmt.Fprintf(&sb, "  aggregate throughput  : %.0f injections/sec\n",
			float64(attempts)/(wall/1000))
		if compute > 0 {
			// Sum of per-cell wall time over study wall time: the average
			// number of cells in flight. On a machine with enough cores this
			// equals the scheduler's wall-clock speedup over the serial path.
			fmt.Fprintf(&sb, "  effective concurrency : %.2fx (cell-time/wall)\n", compute/wall)
		}
	}
	a.mu.Lock()
	done := a.done
	a.mu.Unlock()
	if done.ReplayHits+done.ReplayMisses > 0 {
		total := done.SkippedInstrs + done.ReplayedInstrs
		frac := 0.0
		if total > 0 {
			frac = 100 * float64(done.SkippedInstrs) / float64(total)
		}
		fmt.Fprintf(&sb, "  snapshot replay       : %d/%d attempts fast-forwarded, %d converged, %d hang cycles (%.1f%% of instructions skipped; cache %s, %d evictions)\n",
			done.ReplayHits, done.ReplayHits+done.ReplayMisses, done.ConvergedAttempts, done.CycledAttempts, frac,
			fmtBytes(done.SnapshotCacheBytes), done.SnapshotEvictions)
	}
	slow := a.SlowestCells(5)
	if len(slow) > 0 {
		fmt.Fprintf(&sb, "  slowest cells:\n")
		for _, c := range slow {
			arate := 0.0
			if c.Attempts > 0 {
				arate = 100 * float64(c.Activated) / float64(c.Attempts)
			}
			fmt.Fprintf(&sb, "    %-10s %-5s %-10s %9s  scan %8s  attempts %6d  activation %5.1f%%\n",
				c.Benchmark, c.Level, c.Category, fmtMS(c.DurationMS), fmtMS(c.ScanMS), c.Attempts, arate)
		}
	}
	return sb.String()
}

func fmtMS(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Millisecond).String()
}
