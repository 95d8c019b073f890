package cli

import (
	"fmt"
	"io"

	"hlfi/internal/core"
)

// ExperimentCells validates an experiment name and returns the function
// listing its study cells, nil for table2 and table4, which run no
// campaign. ficompare and fiserve both take their cells from it.
func ExperimentCells(experiment string) (func([]*core.Program) []core.CellKey, error) {
	switch experiment {
	case "fig3", "fig4", "table5", "all":
		return func(progs []*core.Program) []core.CellKey { return core.CanonicalCells(progs, nil) }, nil
	case "calibration":
		return core.CalibrationCells, nil
	case "table2", "table4":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", experiment)
}

// RenderExperiment writes the requested experiment's rendered artifacts
// for a completed study, byte-for-byte the way ficompare prints them.
// The fleet coordinator renders through the same function, so a
// service-run campaign's report is comparable to the single-process
// run with cmp. Unknown experiment names render nothing; callers
// validate up front.
func RenderExperiment(w io.Writer, st *core.Study, experiment string) {
	switch experiment {
	case "fig3":
		fmt.Fprint(w, st.RenderFigure3())
	case "table4":
		fmt.Fprint(w, st.RenderTableIV())
	case "fig4":
		fmt.Fprint(w, st.RenderFigure4())
	case "table5":
		fmt.Fprint(w, st.RenderTableV())
	case "calibration":
		fmt.Fprint(w, st.RenderCalibration())
	case "all":
		fmt.Fprintln(w, st.RenderFigure3())
		fmt.Fprintln(w, st.RenderTableIV())
		fmt.Fprintln(w, st.RenderFigure4())
		fmt.Fprintln(w, st.RenderTableV())
		fmt.Fprintln(w, st.RenderSummary())
		// Adaptive studies carry an extra accuracy-vs-cost section;
		// fixed-n studies render "" here, keeping their output identical.
		if s := st.RenderAdaptive(); s != "" {
			fmt.Fprintln(w, s)
		}
	}
}
