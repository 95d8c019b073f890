package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hlfi/internal/fault"
)

// StudyJSON is the machine-readable form of a study, for plotting
// pipelines and regression tracking.
type StudyJSON struct {
	// Experiment names the artifact this JSON is scoped to
	// (fig3|fig4|table5|all).
	Experiment string     `json:"experiment"`
	N          int        `json:"n"`
	Seed       int64      `json:"seed"`
	Cells      []CellJSON `json:"cells"`
	// Adaptive is the accuracy-vs-cost section of an adaptive study
	// (absent for fixed-n studies, keeping their JSON byte-identical).
	Adaptive *AdaptiveJSON `json:"adaptive,omitempty"`
}

// CellJSON serializes one campaign cell.
type CellJSON struct {
	Benchmark string  `json:"benchmark"`
	Tool      string  `json:"tool"`
	Category  string  `json:"category"`
	Activated int     `json:"activated"`
	Crash     int     `json:"crash"`
	SDC       int     `json:"sdc"`
	Hang      int     `json:"hang"`
	Benign    int     `json:"benign"`
	CrashRate float64 `json:"crashRate"`
	SDCRate   float64 `json:"sdcRate"`
	SDCCI95   float64 `json:"sdcCi95"`
	// DynCandidates is the Table IV entry for this cell.
	DynCandidates uint64 `json:"dynCandidates"`
	NotActivated  int    `json:"notActivated"`
}

// CheckExperimentJSON rejects an experiment without a JSON form
// (table2, table4, calibration) with the error WriteExperimentJSON
// returns, so a caller can refuse it before running anything.
func CheckExperimentJSON(experiment string) error {
	switch experiment {
	case "fig3", "fig4", "table5", "all":
		return nil
	}
	return fmt.Errorf("experiment %q has no JSON form (want fig3|fig4|table5|all)", experiment)
}

// WriteExperimentJSON serializes the study scoped to one experiment's
// cells: fig3 covers only the "all"-category cells (its aggregate
// breakdown uses nothing else), while fig4, table5, and all cover the
// full category cross-product.
func (st *Study) WriteExperimentJSON(w io.Writer, experiment string) error {
	if err := CheckExperimentJSON(experiment); err != nil {
		return err
	}
	cats := fault.Categories
	if experiment == "fig3" {
		cats = []fault.Category{fault.CatAll}
	}
	out := StudyJSON{Experiment: experiment, N: st.N, Seed: st.Seed, Adaptive: st.adaptiveJSON(cats)}
	for _, p := range st.Programs {
		for _, level := range []fault.Level{fault.LevelIR, fault.LevelASM} {
			for _, cat := range cats {
				key := CellKey{Prog: p.Name, Level: level, Category: cat}
				c := st.Cells[key]
				if c == nil {
					continue
				}
				out.Cells = append(out.Cells, CellJSON{
					Benchmark:     p.Name,
					Tool:          level.String(),
					Category:      cat.String(),
					Activated:     c.Activated(),
					Crash:         c.Crash,
					SDC:           c.SDC,
					Hang:          c.Hang,
					Benign:        c.Benign,
					CrashRate:     c.CrashRate().Rate(),
					SDCRate:       c.SDCRate().Rate(),
					SDCCI95:       c.SDCRate().WaldCI(),
					DynCandidates: st.Dyn[key],
					NotActivated:  c.NotActivated,
				})
			}
		}
	}
	sort.SliceStable(out.Cells, func(i, j int) bool {
		a, b := out.Cells[i], out.Cells[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		return a.Category < b.Category
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
