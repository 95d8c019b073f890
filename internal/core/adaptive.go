package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hlfi/internal/adaptive"
	"hlfi/internal/fault"
)

// AdaptiveCounts is a value-type snapshot of a cell's outcome counts at
// its round-1 boundary, persisted on extended records so any process
// holding the checkpoint can recompute the identical reallocation plan.
type AdaptiveCounts struct {
	Benign       int `json:"benign"`
	SDC          int `json:"sdc"`
	Crash        int `json:"crash"`
	Hang         int `json:"hang"`
	NotActivated int `json:"notActivated"`
	Attempts     int `json:"attempts"`
	SimFaults    int `json:"simFaults,omitempty"`
}

// AdaptiveCell records how the early-stopping engine treated one cell.
// All fields are value types: CellResult must stay ==-comparable for
// the differential oracles.
type AdaptiveCell struct {
	// Target is the activated-injection target the record ran under
	// (0 marks a fixed-n record; the study base N for round-1 records;
	// base+grant for round-2 extensions).
	Target int
	// Converged reports that the stopping rule fired before the target.
	Converged bool
	// Extended marks a round-2 record; Round1 then holds the counts at
	// the round-1 boundary the reallocation plan was computed from.
	Extended bool
	Round1   AdaptiveCounts
}

// adaptiveCounts views the result's running tally as the stopping
// rule's input.
func (c *CellResult) adaptiveCounts() adaptive.Counts {
	return adaptive.Counts{
		Benign: c.Benign, SDC: c.SDC, Crash: c.Crash, Hang: c.Hang,
		NotActivated: c.NotActivated, SimFaults: c.SimFaults,
	}
}

// round1State returns the cell's round-1 stop state — the pure input to
// the reallocation plan. For an extended record it is the persisted
// round-1 snapshot (which by construction had not converged); for a
// round-1 record it is the record itself.
func (c *CellResult) round1State() (adaptive.Counts, bool) {
	if c.Adaptive.Extended {
		r := c.Adaptive.Round1
		return adaptive.Counts{
			Benign: r.Benign, SDC: r.SDC, Crash: r.Crash, Hang: r.Hang,
			NotActivated: r.NotActivated, SimFaults: r.SimFaults,
		}, false
	}
	return c.adaptiveCounts(), c.Adaptive.Converged
}

// campaignAdaptive is the per-run early-stopping state of one campaign
// loop (nil when the engine is off: the zero-cost default).
type campaignAdaptive struct {
	cfg       *adaptive.Config
	base      int // round-1 activation budget (== N for round-1 runs)
	maxR1     int // round-1 attempt ceiling (base * maxAttemptsFactor)
	extension bool
	captured  bool
}

// adaptiveState primes the early-stopping state for one campaign run
// and stamps the result's adaptive target.
func (c *Campaign) adaptiveState(res *CellResult) *campaignAdaptive {
	if c.Adaptive == nil {
		return nil
	}
	base := c.AdaptiveBase
	if base <= 0 || base > c.N {
		base = c.N
	}
	res.Adaptive.Target = c.N
	return &campaignAdaptive{
		cfg:       c.Adaptive,
		base:      base,
		maxR1:     base * maxAttemptsFactor,
		extension: base < c.N,
		captured:  base == c.N,
	}
}

// note evaluates the stopping rule after one accounted attempt and
// reports whether the cell is done. Both campaign loops call it after
// every attempt — activated, non-activated, or contained sim fault —
// so the decision sequence is exactly adaptive.Config.StopAt over the
// cell's attempt records.
//
// For extension runs it first snapshots the round-1 counts the moment
// the replayed prefix crosses the round-1 boundary (the activation
// target or the round-1 attempt ceiling, whichever the original run hit
// first). The prefix is identical to the round-1 run — seeded streams
// are position-pure and the rule is prefix-pure, so a rule that did not
// stop round 1 cannot stop inside the replayed prefix either.
func (a *campaignAdaptive) note(res *CellResult) bool {
	if a == nil {
		return false
	}
	if !a.captured && (res.Activated() >= a.base || res.Attempts >= a.maxR1) {
		a.captured = true
		res.Adaptive.Extended = true
		res.Adaptive.Round1 = AdaptiveCounts{
			Benign: res.Benign, SDC: res.SDC, Crash: res.Crash, Hang: res.Hang,
			NotActivated: res.NotActivated, Attempts: res.Attempts, SimFaults: res.SimFaults,
		}
	}
	if a.cfg.ShouldStop(res.adaptiveCounts()) {
		res.Adaptive.Converged = true
		return true
	}
	return false
}

// adaptiveSuffix annotates a progress line with the cell's adaptive
// outcome ("" for fixed-n records, so fixed-n lines are unchanged).
func adaptiveSuffix(res *CellResult) string {
	a := res.Adaptive
	if a.Target == 0 {
		return ""
	}
	switch {
	case a.Extended && a.Converged:
		return fmt.Sprintf(" [adaptive: extended to %d, converged at %d]", a.Target, res.Activated())
	case a.Extended:
		return fmt.Sprintf(" [adaptive: extended to %d]", a.Target)
	case a.Converged:
		return fmt.Sprintf(" [adaptive: converged at %d/%d]", res.Activated(), a.Target)
	default:
		return fmt.Sprintf(" [adaptive: ran to target %d]", a.Target)
	}
}

// adaptiveCellRow is one row of the accuracy-vs-cost section.
type adaptiveCellRow struct {
	key CellKey
	res *CellResult
}

// adaptiveRows collects the study's adaptive records in canonical
// report order (benchmark, level, category).
func (st *Study) adaptiveRows() []adaptiveCellRow {
	var rows []adaptiveCellRow
	for _, p := range st.Programs {
		for _, level := range []fault.Level{fault.LevelIR, fault.LevelASM} {
			for _, cat := range fault.Categories {
				key := CellKey{Prog: p.Name, Level: level, Category: cat}
				if res := st.Cells[key]; res != nil && res.Adaptive.Target > 0 {
					rows = append(rows, adaptiveCellRow{key: key, res: res})
				}
			}
		}
	}
	return rows
}

// RenderAdaptive renders the accuracy-vs-cost section of an adaptive
// study: per-cell targets, achieved half-widths, and the budget ledger
// against the fixed-n baseline. Returns "" for fixed-n studies, so
// every existing render is byte-identical with the engine off.
func (st *Study) RenderAdaptive() string {
	if st.Adaptive == nil {
		return ""
	}
	rows := st.adaptiveRows()
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive sampling (%s; baseline n=%d per cell):\n", st.Adaptive.Signature(), st.N)
	if len(rows) == 0 {
		fmt.Fprintf(&b, "  (no adaptive cells recorded)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-10s %-5s %-10s %7s %10s %9s %11s  %s\n",
		"benchmark", "tool", "category", "target", "activated", "attempts", "half-width", "status")
	for _, row := range rows {
		res := row.res
		a := res.Adaptive
		status := "at-target"
		switch {
		case a.Extended && a.Converged:
			status = "extended+converged"
		case a.Extended:
			status = "extended"
		case a.Converged:
			status = "converged"
		case res.Activated() < a.Target:
			status = "budget-exhausted"
		}
		fmt.Fprintf(&b, "  %-10s %-5s %-10s %7d %10d %9d %11s  %s\n",
			row.key.Prog, row.key.Level, row.key.Category,
			a.Target, res.Activated(), res.Attempts,
			strconv.FormatFloat(res.adaptiveCounts().MaxHalfWidth(), 'f', 4, 64), status)
	}
	l := st.adaptiveLedger(rows)
	fmt.Fprintf(&b, "  budget: activated %d of %d baseline (%.1f%% saved), %d attempts total\n",
		l.spent, l.baseline, l.savingsPct(), l.attempts)
	fmt.Fprintf(&b, "  cells : %d converged early (saved %d), %d extended (+%d granted)\n",
		l.converged, l.saved, l.extended, l.granted)
	return b.String()
}

// adaptiveLedger is the budget ledger of a set of adaptive cells:
// activated faults spent against the fixed-n baseline, those saved by
// cells that converged early, and those granted to extended cells.
type adaptiveLedger struct {
	baseline, spent, saved, granted, attempts int
	converged, extended                       int
}

func (st *Study) adaptiveLedger(rows []adaptiveCellRow) adaptiveLedger {
	l := adaptiveLedger{baseline: st.N * len(rows)}
	for _, row := range rows {
		res := row.res
		a := res.Adaptive
		l.spent += res.Activated()
		l.attempts += res.Attempts
		if a.Converged && !a.Extended {
			l.converged++
			l.saved += st.N - res.Activated()
		}
		if a.Extended {
			l.extended++
			l.granted += a.Target - st.N
		}
	}
	return l
}

func (l adaptiveLedger) savingsPct() float64 {
	if l.baseline == 0 {
		return 0
	}
	return 100 * float64(l.baseline-l.spent) / float64(l.baseline)
}

// AdaptiveJSON is the accuracy-vs-cost section of the -json render.
type AdaptiveJSON struct {
	Eps               float64            `json:"eps"`
	MinN              int                `json:"min"`
	Check             int                `json:"check"`
	BaselineActivated int                `json:"baselineActivated"`
	SpentActivated    int                `json:"spentActivated"`
	SavedActivated    int                `json:"savedActivated"`
	GrantedActivated  int                `json:"grantedActivated"`
	SavingsPct        float64            `json:"savingsPct"`
	Cells             []AdaptiveCellJSON `json:"cells"`
}

// AdaptiveCellJSON is one cell of the adaptive JSON section.
type AdaptiveCellJSON struct {
	Benchmark    string  `json:"benchmark"`
	Tool         string  `json:"tool"`
	Category     string  `json:"category"`
	Target       int     `json:"target"`
	Activated    int     `json:"activated"`
	Attempts     int     `json:"attempts"`
	Converged    bool    `json:"converged"`
	Extended     bool    `json:"extended"`
	MaxHalfWidth float64 `json:"maxHalfWidth"`
}

// adaptiveJSON builds the JSON section (nil for fixed-n studies, which
// keeps fixed-n -json output byte-identical), scoped to the same
// category set as the surrounding experiment's cells — the budget
// totals then describe exactly the cells the JSON shows.
func (st *Study) adaptiveJSON(cats []fault.Category) *AdaptiveJSON {
	if st.Adaptive == nil {
		return nil
	}
	inScope := make(map[fault.Category]bool, len(cats))
	for _, c := range cats {
		inScope[c] = true
	}
	var rows []adaptiveCellRow
	for _, row := range st.adaptiveRows() {
		if inScope[row.key.Category] {
			rows = append(rows, row)
		}
	}
	l := st.adaptiveLedger(rows)
	out := &AdaptiveJSON{
		Eps:               st.Adaptive.Eps,
		MinN:              st.Adaptive.MinN,
		Check:             st.Adaptive.Check,
		BaselineActivated: l.baseline,
		SpentActivated:    l.spent,
		SavedActivated:    l.saved,
		GrantedActivated:  l.granted,
		SavingsPct:        l.savingsPct(),
		Cells:             make([]AdaptiveCellJSON, 0, len(rows)),
	}
	for _, row := range rows {
		res := row.res
		a := res.Adaptive
		out.Cells = append(out.Cells, AdaptiveCellJSON{
			Benchmark: row.key.Prog, Tool: row.key.Level.String(), Category: row.key.Category.String(),
			Target: a.Target, Activated: res.Activated(), Attempts: res.Attempts,
			Converged: a.Converged, Extended: a.Extended,
			MaxHalfWidth: res.adaptiveCounts().MaxHalfWidth(),
		})
	}
	sort.Slice(out.Cells, func(i, j int) bool {
		a, b := out.Cells[i], out.Cells[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		return a.Category < b.Category
	})
	return out
}
