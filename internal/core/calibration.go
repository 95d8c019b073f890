package core

import (
	"fmt"
	"strings"

	"hlfi/internal/fault"
	"hlfi/internal/stats"
)

// Variant is the per-cell coordinate that selects an injector beyond
// the cell's (level, category). The zero value is the paper's cell, so
// paper-study seeds, checkpoint lines, warehouse keys and events keep
// their bytes; the other values are the arms of the paper's §VII
// calibration experiment. A cell's seed is cellSeed(studySeed+variant,
// …), so each arm draws an independent sample.
type Variant int

const (
	// VariantPaper is the paper's cell, and the calibration study's
	// plain-LLFI arm.
	VariantPaper Variant = iota
	// VariantCalibrated is LLFI over the candidate set the §VII
	// discrepancy-resolution heuristics select (llfi.FullCalibration):
	// GEP-as-arithmetic, address-cast exclusion and
	// assembly-mapped-loads-only. IR level only.
	VariantCalibrated
	// VariantResampled is the paper's injector on an independent seed
	// stream: the calibration study's PINFI arm.
	VariantResampled
)

var variantNames = [...]string{"paper", "calibrated", "resampled"}

func (v Variant) String() string {
	if v >= 0 && int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// InvalidVariantError reports a cell variant no injector runs: one
// outside the known set, or the calibrated variant at assembly level
// (the §VII heuristics select LLFI candidates only).
type InvalidVariantError struct {
	Variant Variant
	Level   fault.Level
}

func (e *InvalidVariantError) Error() string {
	if e.Variant == VariantCalibrated {
		return fmt.Sprintf("cell variant %s applies to LLFI cells only, not %s", e.Variant, e.Level)
	}
	return fmt.Sprintf("unknown cell variant %d", int(e.Variant))
}

// checkVariant rejects a variant no injector at level runs.
func checkVariant(level fault.Level, v Variant) error {
	if v < 0 || int(v) >= len(variantNames) || (v == VariantCalibrated && level != fault.LevelIR) {
		return &InvalidVariantError{Variant: v, Level: level}
	}
	return nil
}

// calibrationCats are the categories the §VII heuristics touch.
var calibrationCats = []fault.Category{fault.CatAll, fault.CatArith, fault.CatCast, fault.CatLoad}

// CalibrationCells is the cell list of the §VII calibration study in
// canonical order: programs x {all, arithmetic, cast, load} x (plain
// LLFI, calibrated LLFI, resampled PINFI). Run it as
// StudyConfig.Cells and render it with RenderCalibration.
func CalibrationCells(programs []*Program) []CellKey {
	var keys []CellKey
	for _, p := range programs {
		for _, cat := range calibrationCats {
			keys = append(keys,
				CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat},
				CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat, Variant: VariantCalibrated},
				CellKey{Prog: p.Name, Level: fault.LevelASM, Category: cat, Variant: VariantResampled})
		}
	}
	return keys
}

// calibrationGaps walks the calibration rows in canonical order — one
// per (program, category) whose three arms all completed — and returns
// the mean |crash gap to PINFI| of plain and calibrated LLFI. row, when
// non-nil, sees every row with its two gaps.
func (st *Study) calibrationGaps(row func(prog string, cat fault.Category, plain, cal, pinfi *CellResult, pg, cg float64)) (plain, calibrated float64) {
	var plainGaps, calGaps []float64
	for _, p := range st.Programs {
		for _, cat := range calibrationCats {
			pl := st.Cells[CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat}]
			cal := st.Cells[CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat, Variant: VariantCalibrated}]
			pf := st.Cells[CellKey{Prog: p.Name, Level: fault.LevelASM, Category: cat, Variant: VariantResampled}]
			if pl == nil || cal == nil || pf == nil {
				continue
			}
			pg := abs(pct(pl.CrashRate()) - pct(pf.CrashRate()))
			cg := abs(pct(cal.CrashRate()) - pct(pf.CrashRate()))
			plainGaps = append(plainGaps, pg)
			calGaps = append(calGaps, cg)
			if row != nil {
				row(p.Name, cat, pl, cal, pf, pg, cg)
			}
		}
	}
	return stats.Mean(plainGaps), stats.Mean(calGaps)
}

// CalibrationGaps returns the mean |crash gap to PINFI| of plain and
// calibrated LLFI over a study of CalibrationCells: the figures the
// last line of RenderCalibration prints.
func (st *Study) CalibrationGaps() (plain, calibrated float64) {
	return st.calibrationGaps(nil)
}

// RenderCalibration prints the three-way crash comparison of a study
// of CalibrationCells and the aggregate improvement.
func (st *Study) RenderCalibration() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Calibration experiment (paper §VII future work): crash %% by injector\n")
	fmt.Fprintf(&sb, "%-12s %-10s %10s %12s %10s %18s\n",
		"benchmark", "category", "LLFI", "LLFI(cal.)", "PINFI", "|gap| plain->cal")
	plain, calibrated := st.calibrationGaps(func(prog string, cat fault.Category, pl, cal, pf *CellResult, pg, cg float64) {
		fmt.Fprintf(&sb, "%-12s %-10s %9.1f%% %11.1f%% %9.1f%% %8.1f -> %5.1f\n",
			prog, cat, pct(pl.CrashRate()), pct(cal.CrashRate()), pct(pf.CrashRate()), pg, cg)
	})
	fmt.Fprintf(&sb, "\nmean |crash gap to PINFI|: plain %.1f points, calibrated %.1f points\n",
		plain, calibrated)
	return sb.String()
}
