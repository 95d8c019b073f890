package telemetry

import (
	"hlfi/internal/stats"
)

// StudyStatus is the JSON snapshot served at /statusz: study shape,
// progress counts, and per-cell outcome-rate estimates for every cell
// released so far, in canonical cell order. Rates carry Wilson-score
// 95% intervals so a watcher can tell converged cells from noisy ones
// while the study is still running.
type StudyStatus struct {
	N    int   `json:"n,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Shard is the worker's "i/N" spec when this process runs one shard
	// of a sharded campaign ("" for an unsharded study).
	Shard string `json:"shard,omitempty"`

	CellsPlanned    int  `json:"cellsPlanned"`
	CellsDone       int  `json:"cellsDone"`
	CellsSkipped    int  `json:"cellsSkipped"`
	CellsResumed    int  `json:"cellsResumed"`
	CellsWarehoused int  `json:"cellsWarehoused,omitempty"`
	CellsDeadline   int  `json:"cellsDeadline"`
	SimFaults       int  `json:"simFaults"`
	Traces          int  `json:"traces"`
	Done            bool `json:"done"`
	Aborted         bool `json:"aborted"`

	Attempts         int     `json:"attempts"`
	Activated        int     `json:"activated"`
	ThroughputPerSec float64 `json:"throughputPerSec"`

	Cells []CellStatus `json:"cells,omitempty"`
	Skips []CellStatus `json:"skips,omitempty"`
}

// CellStatus is one completed (or skipped) cell's running estimate.
type CellStatus struct {
	Benchmark string `json:"benchmark"`
	Level     string `json:"level"`
	Category  string `json:"category"`
	Variant   int    `json:"variant,omitempty"`
	Resumed   bool   `json:"resumed,omitempty"`
	// Warehoused marks a cell resolved from the content-addressed result
	// warehouse (cached counts, zero injections executed by this run).
	Warehoused bool `json:"warehoused,omitempty"`

	Attempts   int     `json:"attempts,omitempty"`
	Activated  int     `json:"activated,omitempty"`
	SimFaults  int     `json:"simFaults,omitempty"`
	DurationMS float64 `json:"durationMs,omitempty"`

	Crash  *RateCI `json:"crash,omitempty"`
	SDC    *RateCI `json:"sdc,omitempty"`
	Benign *RateCI `json:"benign,omitempty"`
	Hang   *RateCI `json:"hang,omitempty"`

	// Err explains a skipped cell.
	Err string `json:"err,omitempty"`
}

// RateCI is an outcome proportion with its Wilson-score 95% interval.
type RateCI struct {
	Count    int     `json:"count"`
	Rate     float64 `json:"rate"`
	WilsonLo float64 `json:"wilsonLo"`
	WilsonHi float64 `json:"wilsonHi"`
}

func rateCI(successes, trials int) *RateCI {
	p := stats.Proportion{Successes: successes, Trials: trials}
	lo, hi := p.WilsonCI()
	return &RateCI{Count: successes, Rate: p.Rate(), WilsonLo: lo, WilsonHi: hi}
}

func cellStatus(e Event, resumed, warehoused bool) CellStatus {
	activated := e.Benign + e.SDC + e.Crash + e.Hang
	return CellStatus{
		Benchmark: e.Benchmark, Level: e.Level, Category: e.Category, Variant: e.Variant,
		Resumed:    resumed,
		Warehoused: warehoused,
		Attempts:   e.Attempts,
		Activated:  activated,
		SimFaults:  e.SimFaults,
		DurationMS: e.DurationMS,
		Crash:      rateCI(e.Crash, activated),
		SDC:        rateCI(e.SDC, activated),
		Benign:     rateCI(e.Benign, activated),
		Hang:       rateCI(e.Hang, activated),
	}
}

// Status builds the current study snapshot from the recorded event
// stream. Safe to call concurrently with Record — this is the /statusz
// read path of a live campaign.
func (a *Aggregator) Status() StudyStatus {
	a.mu.Lock()
	defer a.mu.Unlock()

	st := StudyStatus{
		N:               a.start.N,
		Seed:            a.start.Seed,
		Shard:           a.start.Shard,
		CellsPlanned:    a.start.Cells,
		CellsDone:       len(a.cells),
		CellsSkipped:    len(a.skips),
		CellsResumed:    len(a.resumes),
		CellsWarehoused: len(a.warehouses),
		CellsDeadline:   len(a.deadlines),
		SimFaults:       len(a.simFaults),
		Traces:          a.traces,
		Done:            a.done.Type == EventStudyDone,
		Aborted:         a.abort != nil,
	}
	st.Attempts, st.Activated = a.totalsLocked()
	if a.done.DurationMS > 0 {
		st.ThroughputPerSec = float64(st.Attempts) / (a.done.DurationMS / 1000)
	}
	// The combined arrival-order lists interleave fresh and resumed
	// cells (and skips with deadline drops) exactly as the study's
	// reorder buffer released them — canonical cell order. Reading the
	// per-type slices instead would list every resumed cell after every
	// fresh one, breaking the documented ordering on -resume and merged
	// runs.
	for _, r := range a.ordered {
		st.Cells = append(st.Cells, cellStatus(r.e, r.resumed, r.warehoused))
	}
	for _, e := range a.orderedSkips {
		st.Skips = append(st.Skips, CellStatus{
			Benchmark: e.Benchmark, Level: e.Level, Category: e.Category, Variant: e.Variant, Err: e.Err,
		})
	}
	return st
}
